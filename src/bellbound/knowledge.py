"""Knowledge, knowledge excess, distinguishability, and the Bell-factor bound.

Every quantity is evaluated in closed form on the Bloch decomposition
``(n, m, T)`` of the state.  The test suite checks these forms against a
direct trace over the conditional meter states.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    COMPLEMENTARITY_TOL,
    UNIT_AXIS_TOL,
    BlochForm,
    QubitMeasurement,
    TwoQubitState,
    are_complementary,
    decompose,
)
from .errors import NotComplementary

DEGENERATE_DIRECTION = 1e-12


class KnowledgeReport(NamedTuple):
    """Knowledge quantities for one (meter measurement -> signal measurement) pair."""

    K: float
    P: float
    deltaK: float
    D: float
    deltaD: float


class BoundCheck(NamedTuple):
    """Result of testing a sum of squared knowledge excesses against its bound."""

    sum_of_squares: float
    bound: float
    slack: float
    b_max: float


class ExcessOptimum(NamedTuple):
    """Measurement quadruple maximizing the excess sum, plus the bound check,
    the step of :func:`optimize_excess_sum` that returned it (``path``) and
    the number of ridge angles alpha its search profiled (``evaluations``;
    each profile maximizes over the other angle exactly, 0 when certified)."""

    pi_s: QubitMeasurement
    pi_s_prime: QubitMeasurement
    pi_m: QubitMeasurement
    pi_m_prime: QubitMeasurement
    check: BoundCheck
    path: str = "certified"
    evaluations: int = 0


def _apriori(form: BlochForm, s: np.ndarray) -> float:
    return abs(float(form.n @ s))


def _knowledge(form: BlochForm, m: np.ndarray, s: np.ndarray) -> float:
    return max(_apriori(form, s), abs(float((form.T.T @ s) @ m)))


def _knowledge_excess(form: BlochForm, m: np.ndarray, s: np.ndarray) -> float:
    return _knowledge(form, m, s) - _apriori(form, s)


def knowledge(state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement) -> float:
    """Fractional excess of right over wrong guesses of the signal outcome,
    given the meter outcome: K = sum_i |tr Pi_Mi (w rho_M - w_perp rho_M_perp)|
    = max(|n.s|, |(T^T s).m|)."""
    return _knowledge(decompose(state), pi_meter.axis, pi_signal.axis)


def apriori(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """Guessing excess with no meter measurement at all: P = |w - w_perp| = |n.s|."""
    return _apriori(decompose(state), pi_signal.axis)


def knowledge_excess(
    state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement
) -> float:
    """Prediction improvement attributable to the meter measurement: K - P.

    K = max(P, ...) >= P holds exactly in floating point, so the excess is
    never negative and needs no clamping.
    """
    return _knowledge_excess(decompose(state), pi_meter.axis, pi_signal.axis)


def _distinguishability(form: BlochForm, s: np.ndarray) -> float:
    return max(_apriori(form, s), float(np.linalg.norm(form.T.T @ s)))


def distinguishability(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """Maximum knowledge over all meter measurements, the Helstrom trace norm:
    D = max(|n.s|, |T^T s|)."""
    return _distinguishability(decompose(state), pi_signal.axis)


def distinguishability_excess(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """D - P = max(0, |T^T s| - |n.s|)."""
    form = decompose(state)
    return _distinguishability(form, pi_signal.axis) - _apriori(form, pi_signal.axis)


def knowledge_report(
    state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement
) -> KnowledgeReport:
    """All knowledge quantities for one meter/signal measurement pair."""
    form = decompose(state)
    s = pi_signal.axis
    k = _knowledge(form, pi_meter.axis, s)
    p = _apriori(form, s)
    d = _distinguishability(form, s)
    return KnowledgeReport(K=k, P=p, deltaK=k - p, D=d, deltaD=d - p)


def _optimal_meter(form: BlochForm, s: np.ndarray) -> QubitMeasurement:
    direction = form.T.T @ s
    norm = float(np.linalg.norm(direction))
    if norm < DEGENERATE_DIRECTION:
        return QubitMeasurement(np.array([0.0, 0.0, 1.0]), degenerate=True)
    return QubitMeasurement(direction / norm)


def optimal_meter(state: TwoQubitState, pi_signal: QubitMeasurement) -> QubitMeasurement:
    """Helstrom measurement: meter axis along ``T^T s``.

    When ``|T^T s|`` vanishes every meter measurement is equally
    uninformative; the +z axis is returned with ``degenerate`` set.
    """
    return _optimal_meter(decompose(state), pi_signal.axis)


def _bell_max(form: BlochForm) -> float:
    t = form.T
    eigenvalues = np.linalg.eigvalsh(t.T @ t)
    return 2.0 * float(np.sqrt(max(eigenvalues[-1], 0.0) + max(eigenvalues[-2], 0.0)))


def bell_max(state: TwoQubitState) -> float:
    """Maximal CHSH Bell factor: 2 sqrt of the sum of the two largest
    eigenvalues of T^T T (invariant under local unitaries)."""
    return _bell_max(decompose(state))


def _require_complementary(pi_s: QubitMeasurement, pi_s_prime: QubitMeasurement) -> None:
    if not are_complementary(pi_s, pi_s_prime):
        raise NotComplementary(float(pi_s.axis @ pi_s_prime.axis))


def check_bound(
    state: TwoQubitState,
    pi_s: QubitMeasurement,
    pi_s_prime: QubitMeasurement,
    pi_m: QubitMeasurement,
    pi_m_prime: QubitMeasurement,
) -> BoundCheck:
    """Test the central inequality: for complementary signal measurements,
    deltaK^2 + deltaK'^2 <= (B_max / 2)^2 for any pair of meter measurements."""
    return _check_bound(decompose(state), pi_s, pi_s_prime, pi_m, pi_m_prime)


def _check_bound(form: BlochForm, pi_s, pi_s_prime, pi_m, pi_m_prime) -> BoundCheck:
    _require_complementary(pi_s, pi_s_prime)
    dk = _knowledge_excess(form, pi_m.axis, pi_s.axis)
    dk_prime = _knowledge_excess(form, pi_m_prime.axis, pi_s_prime.axis)
    b = _bell_max(form)
    total = dk * dk + dk_prime * dk_prime
    bound = (b / 2.0) ** 2
    return BoundCheck(sum_of_squares=total, bound=bound, slack=bound - total, b_max=b)


def check_same_meter_bound(
    state: TwoQubitState,
    pi_s: QubitMeasurement,
    pi_s_prime: QubitMeasurement,
    pi_m: QubitMeasurement,
) -> BoundCheck:
    """Single-meter variant: deltaK(m->s)^2 + deltaK(m->s')^2 <= 1.

    With two independent meter measurements the unit bound can be exceeded;
    this check always compares against 1 (``b_max`` is reported for context).
    """
    _require_complementary(pi_s, pi_s_prime)
    form = decompose(state)
    dk = _knowledge_excess(form, pi_m.axis, pi_s.axis)
    dk_prime = _knowledge_excess(form, pi_m.axis, pi_s_prime.axis)
    total = dk * dk + dk_prime * dk_prime
    return BoundCheck(sum_of_squares=total, bound=1.0, slack=1.0 - total, b_max=_bell_max(form))


def _bound_slacks(
    n: np.ndarray,
    t: np.ndarray,
    s: np.ndarray,
    s_prime: np.ndarray,
    m: np.ndarray,
    m_prime: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Slacks of :func:`check_bound` and :func:`check_same_meter_bound` for a
    stack of N instances: ``n``, the axes (N, 3) and ``t`` (N, 3, 3).

    The axes are checked as :class:`QubitMeasurement` and
    :func:`check_bound` check them, with the same errors and tolerances.
    The closed forms are those of the scalar functions, but numpy sums in
    another order, so a slack can differ from theirs in the last bits.
    """
    # Written so that a NaN fails each check, as in the scalar checks.
    for axes in (s, s_prime, m, m_prime):
        deviation = np.abs(np.linalg.norm(axes, axis=1) - 1.0)
        if not np.all(deviation <= UNIT_AXIS_TOL):
            raise ValueError(
                f"measurement axis must be a unit vector: | |a| - 1 | = {deviation.max():.3e}"
                f" (limit {UNIT_AXIS_TOL})"
            )
    dot = np.einsum("Nk,Nk->N", s, s_prime)
    overlapping = np.flatnonzero(~(np.abs(dot) <= COMPLEMENTARITY_TOL))
    if overlapping.size:
        raise NotComplementary(float(dot[overlapping[0]]))

    def excess(m: np.ndarray, s: np.ndarray) -> np.ndarray:
        p = np.abs(np.einsum("Nk,Nk->N", n, s))
        return np.maximum(p, np.abs(np.einsum("Nk,Nkl,Nl->N", s, t, m))) - p

    eigenvalues = np.linalg.eigvalsh(np.swapaxes(t, 1, 2) @ t)
    b = 2.0 * np.sqrt(np.maximum(eigenvalues[:, -1], 0.0) + np.maximum(eigenvalues[:, -2], 0.0))
    dk, dk_prime, dk_same = excess(m, s), excess(m_prime, s_prime), excess(m, s_prime)
    slack = (b / 2.0) ** 2 - (dk * dk + dk_prime * dk_prime)
    return slack, 1.0 - (dk * dk + dk_same * dk_same)


def _proper_rotation_factors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``T = O_S diag(d) O_M^T`` with both factors proper rotations.

    Reflection parity is absorbed into the sign of the smallest diagonal
    entry, so ``|d|`` stays in descending order.
    """
    u, sv, vt = np.linalg.svd(t)
    o_s = u.copy()
    o_m = vt.T.copy()
    d = sv.copy()
    if np.linalg.det(o_s) < 0.0:
        o_s[:, 2] *= -1.0
        d[2] = -d[2]
    if np.linalg.det(o_m) < 0.0:
        o_m[:, 2] *= -1.0
        d[2] = -d[2]
    return o_s, d, o_m


# A frame whose sum is within CERTIFY_TOL of the bound is within CERTIFY_TOL of
# the optimum, the accuracy the library promises (slacks are floored at -1e-9).
# It covers filtered states: the filter's tolerance leaves |n| ~ 1e-10, which
# puts the seed ~1e-10 below the bound.
CERTIFY_TOL = 1e-9


def optimize_excess_sum(state: TwoQubitState) -> ExcessOptimum:
    """Maximize deltaK^2 + deltaK'^2 over complementary signal pairs and meters.

    The meter measurements are always Helstrom-optimal given the signal axes,
    so the excess of axis s is ``D - P = max(0, |T^T s| - |n.s|)`` and the
    search runs over the signal frame ``(s, s')`` alone, in three steps.

    1. Certify: the seed frame, the two leading singular directions of the
       correlation matrix, is returned at once when its sum is within
       ``CERTIFY_TOL`` (1e-9) of ``(B_max/2)^2``.  No frame exceeds the bound,
       so the seed is then optimal to that accuracy.  This covers every state
       with ``n = 0`` (Werner, Bell-diagonal), where the seed attains the
       bound, and the output of ``canonical.filter_normal_form``.
    2. Profile: otherwise the search runs on the ridge ``n.s' = 0`` alone,
       which holds an optimum.  Where both excesses of a frame are positive,
       turning the frame in its own plane until one axis is perpendicular to
       ``n`` does not lower the sum; where one excess is 0, turning that
       axis about the other until it is perpendicular to ``n`` does not
       either.  A ridge frame has two angles: alpha turns ``s'`` about ``n``
       and beta tilts ``s`` from ``n`` towards the plane perpendicular to
       it.  The maximum over beta at fixed alpha is exact: it lies at a
       root of one quartic in ``tan beta`` or at beta = pi/2, the double
       ridge ``n.s = n.s' = 0``, whose frames all have the sum
       ``tr(T T^T) - n^T T T^T n / |n|^2``.  That leaves the profile
       ``F(alpha)``, a function of one angle.
    3. Search in alpha: F is screened on 32 angles plus one closed-form
       angle where a narrow bump of F can rise off the double ridge, all in
       one numpy pass, and the best screened angle is refined by bracketed
       secant steps on the closed-form ``dF/dalpha``.  The best profiled
       frame is returned.

    The result's ``check`` is :func:`check_bound` with :func:`optimal_meter`
    meters on the returned signal pair; ``path`` says which step returned it
    (``"certified"`` or ``"searched"``) and ``evaluations`` counts the angles
    alpha profiled (0 when certified).
    """
    # The search is compiled only in the processes that run it.
    from . import _ridge

    form = decompose(state)
    u = np.linalg.svd(form.T)[0]
    bound = (_bell_max(form) / 2.0) ** 2
    if _ridge._excess_sums(form, u[:, :2].T) >= bound - CERTIFY_TOL:
        s, s_prime = u[:, 0], u[:, 1]
        path, evaluations = "certified", 0
    else:
        (s, s_prime), evaluations = _ridge._search(form)
        path = "searched"
    pi_s = QubitMeasurement(s)
    pi_s_prime = QubitMeasurement(s_prime)
    pi_m = _optimal_meter(form, pi_s.axis)
    pi_m_prime = _optimal_meter(form, pi_s_prime.axis)
    check = _check_bound(form, pi_s, pi_s_prime, pi_m, pi_m_prime)
    return ExcessOptimum(pi_s, pi_s_prime, pi_m, pi_m_prime, check, path, evaluations)
