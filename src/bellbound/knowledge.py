"""Knowledge, knowledge excess, distinguishability, and the Bell-factor bound.

Every quantity is evaluated in closed form on the Bloch decomposition
``(n, m, T)`` of the state, by one kernel over N instances (``n`` (N, 3),
``T`` (N, 3, 3), unit axes (N, 3)) whose 1-stacks are the public functions.
One form, ``n`` (1, 3) and ``T`` (1, 3, 3), broadcasts against N axes.
A row repeats one instance's operations, so it is the same bit for bit in
any stack of C-contiguous ``n`` and ``T``; ``core._bloch_split``, the one
split of a state's R into ``n``, ``m`` and ``T``, keeps them so for every
caller.  The test suite checks these forms against a direct trace over the
conditional meter states.

A bound check is put together from pieces its caller holds: the knowledge
excesses, each from its Helstrom direction ``T^T s`` (:func:`_excess_along`),
and B_max.  So each caller computes B_max once and ``T^T s`` once per axis,
and only a caller that reads the same-meter check computes it.

:func:`optimize_excess_sum` maximizes the excess sum over measurements in
four steps: it certifies the seed frame against ``(B_max/2)^2``, reduces the
problem to a profile over one angle of a ridge, decides in closed form
whether that profile is flat (``_flat``), and only otherwise runs the search
(``_ridge``); it imports each module when a state first needs it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .core import (
    QubitMeasurement,
    TwoQubitState,
    _bloch_split,
    _complementary_stack,
    _frozen,
    _row_dot,
    _unit_axes,
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
    the step of :func:`optimize_excess_sum` that returned it (``path``), the
    number of ridge angles alpha its search profiled (``evaluations``; each
    profile maximizes over the other angle exactly, 0 unless searched) and
    the largest distance from the check's sum to the optimum that the step
    leaves open (``gap_bound``; infinite for a value built by hand)."""

    pi_s: QubitMeasurement
    pi_s_prime: QubitMeasurement
    pi_m: QubitMeasurement
    pi_m_prime: QubitMeasurement
    check: BoundCheck
    path: str = "certified"
    evaluations: int = 0
    gap_bound: float = math.inf


def _apriori_stack(n, s) -> np.ndarray:
    """P = |n.s| of each row."""
    return np.abs(_row_dot(n, s))


def _helstrom_stack(t, s) -> np.ndarray:
    """The Helstrom direction ``T^T s``, the best meter axis up to its norm, of each row."""
    return (np.swapaxes(t, 1, 2) @ s[:, :, None])[:, :, 0]


def _knowledge_along(n, direction, m, s) -> tuple[np.ndarray, np.ndarray]:
    """K = max(P, |(T^T s).m|) and P of each row, from its Helstrom direction ``T^T s``."""
    p = _apriori_stack(n, s)
    return np.maximum(p, np.abs(_row_dot(direction, m))), p


def _knowledge_stack(n, t, m, s) -> tuple[np.ndarray, np.ndarray]:
    """K and P of each row (see :func:`_knowledge_along`)."""
    return _knowledge_along(n, _helstrom_stack(t, s), m, s)


def _excess_along(n, direction, m, s) -> np.ndarray:
    """The knowledge excess K - P of each row, from its Helstrom direction ``T^T s``."""
    return np.subtract(*_knowledge_along(n, direction, m, s))


def _distinguishability_stack(n, t, s) -> tuple[np.ndarray, np.ndarray]:
    """D = max(P, |T^T s|) and P of each row."""
    p, direction = _apriori_stack(n, s), _helstrom_stack(t, s)
    return np.maximum(p, np.sqrt(_row_dot(direction, direction))), p


def _bell_max_stack(t) -> np.ndarray:
    """B_max = 2 sqrt of the sum of the two largest eigenvalues of T^T T, of each row."""
    eigenvalues = np.linalg.eigvalsh(np.swapaxes(t, 1, 2) @ t)
    return 2.0 * np.sqrt(np.maximum(eigenvalues[:, -1], 0.0) + np.maximum(eigenvalues[:, -2], 0.0))


def _require_complementary(s, s_prime) -> None:
    """NotComplementary for the first row whose signal axes are not orthogonal."""
    dot, complementary = _complementary_stack(s, s_prime)
    if not complementary.all():
        raise NotComplementary(float(dot[np.argmin(complementary)]))


def _bound_check(dk, dk_prime, b) -> BoundCheck:
    """:func:`check_bound` of each row from its two knowledge excesses and
    B_max, as a BoundCheck of (N,) arrays; ``(B_max/2)^2`` is Python's float power."""
    bound = np.array([(x / 2.0) ** 2 for x in b.tolist()])
    total = dk * dk + dk_prime * dk_prime
    return BoundCheck(total, bound, bound - total, b)


def _same_meter_check(dk, dk_same, b) -> BoundCheck:
    """:func:`check_same_meter_bound` of each row from the excesses of its
    one meter on both signal axes, as a BoundCheck of (N,) arrays."""
    same = dk * dk + dk_same * dk_same
    return BoundCheck(same, np.ones_like(b), 1.0 - same, b)


def _bound_checks(n, t, s, s_prime, m, m_prime) -> tuple[BoundCheck, BoundCheck]:
    """:func:`check_bound` and :func:`check_same_meter_bound` (with meter
    ``m``) of each row, as BoundChecks of (N,) arrays; each Helstrom
    direction and B_max is computed once.  The first row whose signal axes
    are not orthogonal raises NotComplementary."""
    _require_complementary(s, s_prime)
    direction_prime = _helstrom_stack(t, s_prime)
    dk = _excess_along(n, _helstrom_stack(t, s), m, s)
    dk_prime, dk_same = (_excess_along(n, direction_prime, x, s_prime) for x in (m_prime, m))
    b = _bell_max_stack(t)
    return _bound_check(dk, dk_prime, b), _same_meter_check(dk, dk_same, b)


def _one(state: TwoQubitState, *measurements: QubitMeasurement) -> tuple[np.ndarray, ...]:
    """The 1-stack of a state and its measurements: ``n``, ``T`` and each axis."""
    n, _, t = _bloch_split(state.matrix[None])
    return (n, t, *(pi.axis[None] for pi in measurements))


def _first(check: BoundCheck) -> BoundCheck:
    """The first row of a stacked BoundCheck, as floats."""
    return BoundCheck(*(float(field[0]) for field in check))


def knowledge(state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement) -> float:
    """Fractional excess of right over wrong guesses of the signal outcome,
    given the meter outcome: K = sum_i |tr Pi_Mi (w rho_M - w_perp rho_M_perp)|
    = max(|n.s|, |(T^T s).m|)."""
    return float(_knowledge_stack(*_one(state, pi_meter, pi_signal))[0][0])


def apriori(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """Guessing excess with no meter measurement at all: P = |w - w_perp| = |n.s|."""
    n, _, s = _one(state, pi_signal)
    return float(_apriori_stack(n, s)[0])


def knowledge_excess(
    state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement
) -> float:
    """Prediction improvement attributable to the meter measurement: K - P.

    K = max(P, ...) >= P holds exactly in floating point, so the excess is
    never negative and needs no clamping.
    """
    k, p = _knowledge_stack(*_one(state, pi_meter, pi_signal))
    return float(k[0] - p[0])


def distinguishability(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """Maximum knowledge over all meter measurements, the Helstrom trace norm:
    D = max(|n.s|, |T^T s|)."""
    return float(_distinguishability_stack(*_one(state, pi_signal))[0][0])


def distinguishability_excess(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """D - P = max(0, |T^T s| - |n.s|)."""
    d, p = _distinguishability_stack(*_one(state, pi_signal))
    return float(d[0] - p[0])


def knowledge_report(
    state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement
) -> KnowledgeReport:
    """All knowledge quantities for one meter/signal measurement pair."""
    n, t, m, s = _one(state, pi_meter, pi_signal)
    (k, p), (d, _) = _knowledge_stack(n, t, m, s), _distinguishability_stack(n, t, s)
    k, p, d = float(k[0]), float(p[0]), float(d[0])
    return KnowledgeReport(K=k, P=p, deltaK=k - p, D=d, deltaD=d - p)


def _meter_along(directions) -> tuple[np.ndarray, np.ndarray]:
    """The Helstrom meter axes along the stack ``directions`` (N, 3), each
    ``T^T s`` divided by its norm, for :func:`_unit_axes` to check and
    normalize once more, and whether each is degenerate, +z in its place
    (see :func:`optimal_meter`)."""
    norm = np.sqrt(_row_dot(directions, directions))
    degenerate = norm < DEGENERATE_DIRECTION
    rows = directions / np.where(degenerate, 1.0, norm)[:, None]
    return np.where(degenerate[:, None], [0.0, 0.0, 1.0], rows), degenerate


def optimal_meter(state: TwoQubitState, pi_signal: QubitMeasurement) -> QubitMeasurement:
    """Helstrom measurement: meter axis along ``T^T s``.

    When ``|T^T s|`` vanishes every meter measurement is equally
    uninformative; the +z axis is returned with ``degenerate`` set.
    """
    rows, degenerate = _meter_along(_helstrom_stack(*_one(state, pi_signal)[1:]))
    return QubitMeasurement._of(_frozen(_unit_axes(rows))[0], bool(degenerate[0]))


def bell_max(state: TwoQubitState) -> float:
    """Maximal CHSH Bell factor: 2 sqrt of the sum of the two largest
    eigenvalues of T^T T (invariant under local unitaries)."""
    return float(_bell_max_stack(_one(state)[1])[0])


def check_bound(
    state: TwoQubitState,
    pi_s: QubitMeasurement,
    pi_s_prime: QubitMeasurement,
    pi_m: QubitMeasurement,
    pi_m_prime: QubitMeasurement,
) -> BoundCheck:
    """Test the central inequality: for complementary signal measurements,
    deltaK^2 + deltaK'^2 <= (B_max / 2)^2 for any pair of meter measurements."""
    n, t, s, s_prime, m, m_prime = _one(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    _require_complementary(s, s_prime)
    dk, dk_prime = (
        _excess_along(n, _helstrom_stack(t, x), meter, x) for meter, x in ((m, s), (m_prime, s_prime))
    )
    return _first(_bound_check(dk, dk_prime, _bell_max_stack(t)))


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
    n, t, s, s_prime, m = _one(state, pi_s, pi_s_prime, pi_m)
    _require_complementary(s, s_prime)
    dk, dk_same = (_excess_along(n, _helstrom_stack(t, x), m, x) for x in (s, s_prime))
    return _first(_same_meter_check(dk, dk_same, _bell_max_stack(t)))


def _proper_rotation_factors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``T = O_S diag(d) O_M^T`` with both factors proper rotations.

    Reflection parity is absorbed into the sign of the smallest diagonal
    entry, so ``|d|`` stays in descending order.
    """
    o_s, d, vt = np.linalg.svd(t)
    o_m = vt.T.copy()
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
    search runs over the signal frame ``(s, s')`` alone, in four steps.

    1. Certify: the seed frame, the two leading singular directions of the
       correlation matrix, is returned at once when its sum of ``(D - P)^2``
       is within ``CERTIFY_TOL`` (1e-9) of ``(B_max/2)^2``.  No frame exceeds the bound,
       so the seed is then optimal to that accuracy.  This covers every state
       with ``n = 0`` (Werner, Bell-diagonal), where the seed attains the
       bound, and the output of ``canonical.filter_normal_form``.
    2. Profile: otherwise an optimum lies on the ridge ``n.s' = 0``.  Where
       both excesses of a frame are positive, turning the frame in its own
       plane until one axis is perpendicular to ``n`` does not lower the
       sum; where one excess is 0, turning that axis about the other until
       it is perpendicular to ``n`` does not either.  A ridge frame has two
       angles: alpha turns ``s'`` about ``n`` and beta tilts ``s`` from ``n``
       towards the plane perpendicular to it.  The maximum over beta at
       fixed alpha is exact: it lies at a root of one quartic in ``tan
       beta`` or at beta = pi/2, the double ridge ``n.s = n.s' = 0``, whose
       frames all have the sum ``D0 = tr(T T^T) - n^T T T^T n / |n|^2``.
       That leaves the profile ``F(alpha) >= D0``, a function of one angle.
    3. Flat: ``_flat._is_flat`` decides in closed form whether ``F(alpha) =
       D0`` for every alpha, with a margin.  If so, every double-ridge frame
       is optimal, and one is returned with no search.
    4. Search in alpha: F is screened on 32 angles plus one closed-form
       angle where a narrow bump of F can rise off the double ridge, all in
       one numpy pass, and the best screened angle is refined by bracketed
       secant steps on the closed-form ``dF/dalpha``.  The best profiled
       frame is returned.

    The result's ``check`` is :func:`check_bound` with :func:`optimal_meter`
    meters on the returned signal pair, with B_max and each Helstrom
    direction computed once; ``path`` says which step returned it
    (``"certified"``, ``"flat"`` or ``"searched"``) and ``evaluations``
    counts the angles alpha profiled (0 unless searched).  ``gap_bound`` is
    what the step proves of the distance from the sum to the optimum: the
    bound less the sum (at least 0) when certified or searched, and the
    rounding ``|D0 - sum|`` when flat.
    """
    n, _, t = _bloch_split(state.matrix[None])
    b = _bell_max_stack(t)
    bound = (float(b[0]) / 2.0) ** 2
    seeds = np.ascontiguousarray(np.linalg.svd(t[0])[0][:, :2].T)
    excess = np.subtract(*_distinguishability_stack(n, t, seeds))
    evaluations = 0
    if (excess**2).sum() >= bound - CERTIFY_TOL:
        frame, path = seeds, "certified"
    else:
        # The flat test and the search are compiled only in the processes that run them.
        from . import _flat

        basis = np.linalg.svd(n)[2]
        m = basis @ t[0] @ t[0].T @ basis.T
        nu2 = float(n[0] @ n[0])
        if _flat._is_flat(m, nu2):
            frame, path = basis[1:], "flat"
        else:
            from . import _ridge

            frame, evaluations = _ridge._search(basis, m, nu2)
            path = "searched"
    s = _unit_axes(frame)
    _require_complementary(s[:1], s[1:])
    directions = _helstrom_stack(t, s)
    rows, degenerate = _meter_along(directions)
    axes = _frozen(np.concatenate([s, _unit_axes(rows)]))
    excess = _excess_along(n, directions, axes[2:], s)
    check = _first(_bound_check(excess[:1], excess[1:], b))
    if path == "flat":
        gap_bound = abs(float(m[1, 1] + m[2, 2]) - check.sum_of_squares)
    else:
        gap_bound = max(check.slack, 0.0)
    pis = map(QubitMeasurement._of, axes, (False, False, *map(bool, degenerate)))
    return ExcessOptimum(*pis, check, path, evaluations, gap_bound)
