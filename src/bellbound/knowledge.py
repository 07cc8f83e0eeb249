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
    the number of frames its polish evaluated (``evaluations``)."""

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


# The ridge grid: RIDGE_TURNS x RIDGE_TURNS frames with s' perpendicular to n.
RIDGE_TURNS = 32
# Frames are polished from the best POLISH_STARTS screened candidates that are
# pairwise further apart than DISTINCT_COSINE allows, up to the symmetries.
POLISH_STARTS = 3
DISTINCT_COSINE = 0.98
# Each Newton iteration tries the step scaled by 1, 1/2, ..., 2**(1 - STEP_TRIALS)
# at once and keeps the best trial.  A lane stops once its best trial gains no
# more than GAIN_TOL; the polish stops when every lane has stopped, or after
# MAX_ITERATIONS.
STEP_TRIALS = 12
GAIN_TOL = 1e-15
MAX_ITERATIONS = 60
# No rotation angle of a step exceeds MAX_STEP radians, and curvatures are
# floored at CURVATURE_FLOOR times the largest, so a flat direction cannot
# send a step off.
MAX_STEP = 0.5
CURVATURE_FLOOR = 1e-9
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


def _distinct_best(form: BlochForm, frames: np.ndarray) -> list[int]:
    """Indices of the best POLISH_STARTS frames of a stack (N, 2, 3), no two
    of them alike up to ``s -> -s``, ``s' -> -s'`` and ``s <-> s'``."""
    scores = _excess_sums(form, frames)
    s, s_prime = frames[:, 0], frames[:, 1]
    picks = []
    while len(picks) < POLISH_STARTS and np.isfinite(scores).any():
        i = int(np.argmax(scores))
        picks.append(i)
        same = np.minimum(np.abs(s @ s[i]), np.abs(s_prime @ s_prime[i]))
        swapped = np.minimum(np.abs(s @ s_prime[i]), np.abs(s_prime @ s[i]))
        scores[np.maximum(same, swapped) > DISTINCT_COSINE] = -np.inf
    return picks


def _ridge_derivatives(form: BlochForm, basis: np.ndarray, angles: np.ndarray):
    """Gradient (k, 2) and Hessian (k, 2, 2) of the excess sum in the angles,
    at the rows ``(alpha, beta)`` of ``angles``: ``sum_x g(x) . x_i`` and
    ``sum_x x_i^T H(x) x_j + g(x) . x_ij`` over the axes ``x`` of the frame,
    ``x_i`` and ``x_ij`` their derivatives by the angles, where ``g`` and
    ``H`` are the gradient and Hessian of ``h(x) = max(0, e)^2``, ``e = |T^T x| - |n.x|``:

        g = 2e (u - sign(n.x) n),  u = T T^T x / |T^T x|,
        H = 2 grad e grad e^T + 2e (T T^T - u u^T) / |T^T x|.

    Both vanish where ``e = 0``, so no lane divides by ``|T^T x| = 0``."""
    n, t = form.n, form.T
    alpha, beta = angles.T
    frames = _ridge_frames(basis, alpha, beta)
    y = frames @ t
    r = np.sqrt((y * y).sum(axis=-1))
    c = frames @ n
    e = r - np.abs(c)
    active = e > 0.0
    e = np.where(active, e, 0.0)
    r = np.where(active, r, 1.0)
    u = (y @ t.T) / r[..., None]
    de = u - np.sign(c)[..., None] * n
    g = (2.0 * e)[..., None] * de
    hess = 2.0 * (
        active[..., None, None] * (de[..., :, None] * de[..., None, :])
        + (e / r)[..., None, None] * (t @ t.T - u[..., :, None] * u[..., None, :])
    )
    s, s_prime = frames[:, 0], frames[:, 1]
    w = np.cos(alpha)[:, None] * basis[2] - np.sin(alpha)[:, None] * basis[1]
    cos_b, sin_b, zero = np.cos(beta)[:, None], np.sin(beta)[:, None], np.zeros_like(w)
    # x_i as first[k, x, i] and x_ij as second[k, x, i, j], x = (s, s'), i = (alpha, beta).
    first = np.stack([-sin_b * s_prime, cos_b * w - sin_b * basis[0], w, zero], axis=1)
    second = [-sin_b * w, -cos_b * s_prime, -cos_b * s_prime, -s, -s_prime, zero, zero, zero]
    first, second = first.reshape(-1, 2, 2, 3), np.stack(second, axis=1).reshape(-1, 2, 2, 2, 3)
    hessian = np.einsum("kxim,kxmn,kxjn->kij", first, hess, first)
    return np.einsum("kxm,kxim->ki", g, first), hessian + np.einsum("kxm,kxijm->kij", g, second)


def _polish(form: BlochForm, basis: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton ascent on the ridge from all starts ``angles`` (k, 2), rows
    ``(alpha, beta)`` of :func:`_ridge_frames`, at once.  A step takes every
    curvature by its absolute value, floored, so it ascends; an iteration tries
    STEP_TRIALS scalings of it and keeps a lane's best trial when it gains.
    Returns the best polished frame (2, 3) and the number of frames evaluated."""
    scales = 0.5 ** np.arange(STEP_TRIALS)[:, None]
    values = _excess_sums(form, _ridge_frames(basis, *angles.T))
    running = np.ones(len(angles), dtype=bool)
    evaluations, lanes = len(angles), np.arange(len(angles))
    for _ in range(MAX_ITERATIONS):
        gradient, hessian = _ridge_derivatives(form, basis, angles)
        curvature, vectors = np.linalg.eigh(hessian)
        curvature = np.abs(curvature)
        floor = CURVATURE_FLOOR * curvature.max(axis=1, keepdims=True)
        curvature = np.maximum(curvature, np.maximum(floor, np.finfo(float).tiny))
        along = np.einsum("kji,kj->ki", vectors, gradient) / curvature
        step = np.einsum("kij,kj->ki", vectors, along)
        step *= MAX_STEP / np.maximum(np.abs(step).max(axis=1, keepdims=True), MAX_STEP)
        trials = angles[:, None] + scales * step[:, None]
        trial_values = _excess_sums(form, _ridge_frames(basis, trials[..., 0], trials[..., 1]))
        evaluations += trial_values.size
        best = trial_values.argmax(axis=1)
        gain = trial_values[lanes, best] - values
        moved = running & (gain > 0.0)
        angles = np.where(moved[:, None], trials[lanes, best], angles)
        values = np.where(moved, trial_values[lanes, best], values)
        running &= gain > GAIN_TOL
        if not running.any():
            break
    return _ridge_frames(basis, *angles[int(np.argmax(values))]), evaluations


def _search(form: BlochForm) -> tuple[np.ndarray, int]:
    """Screen the ridge frames, polish the best distinct ones: the frame
    (2, 3) and the number of frames the polish evaluated."""
    basis = np.linalg.svd(form.n[None, :])[2]
    turns = np.arange(RIDGE_TURNS) * math.pi / RIDGE_TURNS
    # Row beta = pi/2 is the double ridge, where every frame has the same sum:
    # left in the screen, its frames would all tie and crowd out the rest.
    alpha, beta = (g.ravel() for g in np.meshgrid(turns, np.delete(turns, RIDGE_TURNS // 2)))
    picks = _distinct_best(form, _ridge_frames(basis, alpha, beta))
    frame, evaluations = _polish(form, basis, np.stack([alpha, beta], axis=1)[picks])
    double = _ridge_frames(basis, 0.0, math.pi / 2)
    return max((frame, double), key=lambda f: _excess_sums(form, f)), evaluations


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
    2. Screen: otherwise the search runs on the ridge ``n.s' = 0`` alone,
       which holds an optimum.  Where both excesses of a frame are positive,
       turning the frame in its own plane until one axis is perpendicular to
       ``n`` does not lower the sum; where one excess is 0, turning that
       axis about the other until it is perpendicular to ``n`` does not
       either.  The closed-form sum is evaluated in one numpy pass over a
       32 x 32 grid of ridge frames.
    3. Polish: on the ridge the sum is smooth except where it meets the
       other kink ``n.s = 0``, the double ridge.  Every double-ridge frame
       has the same sum ``tr(T T^T) - n^T T T^T n / |n|^2``, so those frames
       are screened apart: left in, they would all tie.  The best three
       other ridge frames that are distinct up to ``s -> -s``, ``s' -> -s'``
       and ``s <-> s'`` are polished by Newton steps in the screen's own
       ridge angles, all at once (numpy only).  The best polished frame is
       returned, or a double-ridge frame if its sum is higher.

    The result's ``check`` is :func:`check_bound` with :func:`optimal_meter`
    meters on the returned signal pair; ``path`` says which step returned it
    (``"certified"`` or ``"searched"``) and ``evaluations`` counts the frames
    the polish evaluated (0 when certified).
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
