"""Knowledge, knowledge excess, distinguishability, and the Bell-factor bound.

Every quantity is evaluated in closed form on the Bloch decomposition
``(n, m, T)`` of the state.  The test suite checks these forms against a
direct trace over the conditional meter states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class KnowledgeReport:
    """Knowledge quantities for one (meter measurement -> signal measurement) pair."""

    K: float
    P: float
    deltaK: float
    D: float
    deltaD: float


@dataclass(frozen=True)
class BoundCheck:
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


def distinguishability(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """Maximum knowledge over all meter measurements, the Helstrom trace norm:
    D = max(|n.s|, |T^T s|)."""
    form = decompose(state)
    s = pi_signal.axis
    return max(_apriori(form, s), float(np.linalg.norm(form.T.T @ s)))


def distinguishability_excess(state: TwoQubitState, pi_signal: QubitMeasurement) -> float:
    """D - P = max(0, |T^T s| - |n.s|)."""
    form = decompose(state)
    s = pi_signal.axis
    return max(0.0, float(np.linalg.norm(form.T.T @ s)) - _apriori(form, s))


def knowledge_report(
    state: TwoQubitState, pi_meter: QubitMeasurement, pi_signal: QubitMeasurement
) -> KnowledgeReport:
    """All knowledge quantities for one meter/signal measurement pair."""
    k = knowledge(state, pi_meter, pi_signal)
    p = apriori(state, pi_signal)
    d = distinguishability(state, pi_signal)
    return KnowledgeReport(K=k, P=p, deltaK=k - p, D=d, deltaD=d - p)


def optimal_meter(state: TwoQubitState, pi_signal: QubitMeasurement) -> QubitMeasurement:
    """Helstrom measurement: meter axis along ``T^T s``.

    When ``|T^T s|`` vanishes every meter measurement is equally
    uninformative; the +z axis is returned with ``degenerate`` set.
    """
    form = decompose(state)
    direction = form.T.T @ pi_signal.axis
    norm = float(np.linalg.norm(direction))
    if norm < DEGENERATE_DIRECTION:
        return QubitMeasurement(np.array([0.0, 0.0, 1.0]), degenerate=True)
    return QubitMeasurement(direction / norm)


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
    _require_complementary(pi_s, pi_s_prime)
    form = decompose(state)
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


# The screen profiles RIDGE_TURNS angles alpha in [0, pi), a period of the profile.
RIDGE_TURNS = 32
# A slope of the profile no larger than FLAT_SLOPE times the double-ridge sum
# is rounding.  The refinement stops at such a slope, when its bracket stops
# shrinking or after REFINE_STEPS profiles.
FLAT_SLOPE = 1e-10
REFINE_STEPS = 60
# A frame whose sum is within CERTIFY_TOL of the bound is within CERTIFY_TOL of
# the optimum, the accuracy the library promises (slacks are floored at -1e-9).
# It covers filtered states: the filter's tolerance leaves |n| ~ 1e-10, which
# puts the seed ~1e-10 below the bound.
CERTIFY_TOL = 1e-9


def _ridge_frames(basis: np.ndarray, alpha, beta) -> np.ndarray:
    """Frames ``(s, s')`` (..., 2, 3) on the kink ``n.s' = 0`` at angle arrays of
    one shape: ``s' = cos(alpha) a + sin(alpha) b``, ``s = cos(beta) n_hat +
    sin(beta) w``, ``w = cos(alpha) b - sin(alpha) a``, for an orthonormal
    ``basis = (n_hat, a, b)``, ``n_hat`` along ``n``.  beta = pi/2 gives the
    double ridge, where ``n.s = 0`` too."""
    n_hat, a, b = basis
    alpha, beta = np.asarray(alpha)[..., None], np.asarray(beta)[..., None]
    s_prime = np.cos(alpha) * a + np.sin(alpha) * b
    s = np.cos(beta) * n_hat + np.sin(beta) * (np.cos(alpha) * b - np.sin(alpha) * a)
    return np.stack([s, s_prime], axis=-2)


def _excess_sums(form: BlochForm, frames: np.ndarray) -> np.ndarray:
    """``(D - P)^2 + (D' - P')^2`` of each frame of a stack (..., 2, 3) of
    signal axes ``(s, s')``."""
    projected = frames @ form.T
    excess = np.maximum(0.0, np.sqrt((projected**2).sum(axis=-1)) - np.abs(frames @ form.n))
    return (excess**2).sum(axis=-1)


def _profile(form: BlochForm, basis: np.ndarray, alpha: np.ndarray):
    """The ridge profile ``F(alpha) = max_beta G(alpha, beta)``, ``G`` the excess
    sum of ``_ridge_frames(basis, alpha, beta)``, with ``dF/dalpha`` and the
    maximizing beta, at each angle of the 1-D array ``alpha``.

    With ``M = T T^T``, ``nu = |n|``, ``A = n_hat^T M n_hat``, ``B = n_hat^T M w``
    and ``C = w^T M w``, ``|T^T s'|^2 = tr M - A - C`` and ``|T^T s|^2 = q =
    A cos^2 beta + 2B cos beta sin beta + C sin^2 beta``, so for beta in
    [-pi/2, pi/2] (``s -> -s`` covers the rest)

        G = tr M - A - C + max(0, sqrt(q) - nu cos beta)^2.

    Where the excess of ``s`` is positive, every stationary point of G in beta
    has ``u = tan beta`` a root of the quartic ``(B (1 - u^2) + (C - A) u)^2 =
    nu^2 u^2 (A + 2B u + C u^2)``.  Its roots, from companion eigenvalues, and
    beta = pi/2 (the double ridge, where ``G = tr M - A``) hold the maximum.  At
    the maximizing beta, ``dF/dalpha = dG/dalpha = -C' + e (2B' cos beta sin
    beta + C' sin^2 beta) / sqrt(q)``, ``e`` the excess of ``s`` and ``'`` the
    derivative by alpha (``w' = -s'``)."""
    m = basis @ form.T @ form.T.T @ basis.T
    nu2 = float(form.n @ form.n)
    c, plane = m[0, 1:], m[1:, 1:]
    w = np.stack([-np.sin(alpha), np.cos(alpha)], axis=-1)
    s_prime = np.stack([w[:, 1], -w[:, 0]], axis=-1)
    a_, b_, c_ = m[0, 0], w @ c, np.einsum("ki,ij,kj->k", w, plane, w)
    db, dc = -(s_prime @ c), -2.0 * np.einsum("ki,ij,kj->k", w, plane, s_prime)
    d = c_ - a_
    coefficients = np.stack(
        [b_**2 - nu2 * c_, -2.0 * b_ * (d + nu2), d**2 - 2.0 * b_**2 - nu2 * a_, 2.0 * b_ * d, b_**2],
        axis=1,
    )
    # Scaled to a largest coefficient of 1, with the leading one kept off 0: a
    # root that runs to infinity is a beta at the double ridge, a candidate anyway.
    scale = np.abs(coefficients).max(axis=1, keepdims=True)
    coefficients /= np.where(scale > 0.0, scale, 1.0)
    eps = np.finfo(float).eps
    lead = np.copysign(np.maximum(np.abs(coefficients[:, 0]), eps), coefficients[:, 0])
    companion = np.zeros((len(alpha), 4, 4))
    companion[:, 0] = -coefficients[:, 1:] / lead[:, None]
    companion[:, 1:, :3] = np.eye(3)
    beta = np.arctan(np.linalg.eigvals(companion).real)
    beta = np.concatenate([beta, np.full((len(alpha), 1), math.pi / 2)], axis=1)
    cos_b, sin_b = np.cos(beta), np.sin(beta)
    q = np.maximum(a_ * cos_b**2 + 2.0 * b_[:, None] * cos_b * sin_b + c_[:, None] * sin_b**2, 0.0)
    root_q = np.sqrt(q)
    excess = np.maximum(0.0, root_q - math.sqrt(nu2) * cos_b)
    lanes, best = np.arange(len(alpha)), excess.argmax(axis=1)
    e, root_q, cos_b, sin_b = (x[lanes, best] for x in (excess, root_q, cos_b, sin_b))
    pull = e / np.where(e > 0.0, root_q, 1.0)
    slope = -dc + pull * (2.0 * db * cos_b * sin_b + dc * sin_b**2)
    return np.trace(m) - a_ - c_ + e**2, slope, beta[lanes, best]


def _search(form: BlochForm) -> tuple[np.ndarray, int]:
    """Maximize the ridge profile ``F(alpha)`` of :func:`_profile`: the best
    frame (2, 3) and the number of angles alpha profiled.

    The screen profiles RIDGE_TURNS angles and one more, the alpha whose ``w``
    is the top eigenvector of ``H = c c^T - nu^2 P``, where ``c`` and ``P`` are
    the parts of ``M n_hat`` and ``M`` in the plane perpendicular to ``n``.  The
    quartic's leading coefficient is ``w^T H w``; where it is positive, the
    double ridge is no longer a maximum in beta, and a narrow bump of F that
    the grid could miss rises there.  Then bracketed secant (Illinois) steps on
    ``dF/dalpha`` refine the best screened angle towards its neighbour uphill.
    A flat point, whose slope is at most FLAT_SLOPE times the double-ridge
    sum, counts as past the peak, outside the bump; while the far end of the
    bracket is flat, its slope says nothing of the peak, so the step bisects."""
    basis = np.linalg.svd(form.n[None, :])[2]
    m = basis @ form.T @ form.T.T @ basis.T
    h = np.outer(m[0, 1:], m[0, 1:]) - float(form.n @ form.n) * m[1:, 1:]
    top = np.linalg.eigh(h)[1][:, -1]
    turns = np.arange(RIDGE_TURNS) * math.pi / RIDGE_TURNS
    alpha = np.sort(np.append(turns, math.atan2(-top[0], top[1]) % math.pi))
    values, slopes, betas = _profile(form, basis, alpha)
    i = int(np.argmax(values))
    best, evaluations = (values[i], alpha[i], betas[i]), len(alpha)
    # The bracket [lo, hi] holds distances t from alpha[i] uphill, where the
    # slope g along t is positive before the peak and at most floor past it.
    floor = FLAT_SLOPE * (np.trace(m) - m[0, 0])
    uphill = 1.0 if slopes[i] > 0.0 else -1.0
    j = i + int(uphill)
    lo, hi = 0.0, abs(alpha[j % len(alpha)] + math.pi * (j // len(alpha)) - alpha[i])
    g_lo, g_hi = uphill * slopes[i], uphill * slopes[j % len(alpha)]
    side = 0
    for _ in range(REFINE_STEPS if g_lo > floor and g_hi <= floor else 0):
        secant = g_hi < -floor
        t = (lo * g_hi - hi * g_lo) / (g_hi - g_lo) if secant else 0.5 * (lo + hi)
        if not lo < t < hi:
            break
        value, slope, beta = (x[0] for x in _profile(form, basis, np.array([alpha[i] + uphill * t])))
        evaluations += 1
        if value > best[0]:
            best = (value, alpha[i] + uphill * t, beta)
        g = uphill * slope
        if secant and abs(g) <= floor:
            break
        # Illinois: an end kept twice in a row has its slope halved.
        if g > floor:
            lo, g_lo, g_hi, side = t, g, g_hi * (0.5 if side == -1 else 1.0), -1
        else:
            hi, g_hi, g_lo, side = t, g, g_lo * (0.5 if side == 1 else 1.0), 1
    return _ridge_frames(basis, best[1], best[2]), evaluations


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
    form = decompose(state)
    u = np.linalg.svd(form.T)[0]
    bound = (_bell_max(form) / 2.0) ** 2
    if _excess_sums(form, u[:, :2].T) >= bound - CERTIFY_TOL:
        s, s_prime = u[:, 0], u[:, 1]
        path, evaluations = "certified", 0
    else:
        (s, s_prime), evaluations = _search(form)
        path = "searched"
    pi_s = QubitMeasurement(s)
    pi_s_prime = QubitMeasurement(s_prime)
    pi_m = optimal_meter(state, pi_s)
    pi_m_prime = optimal_meter(state, pi_s_prime)
    check = check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    return ExcessOptimum(pi_s, pi_s_prime, pi_m, pi_m_prime, check, path, evaluations)
