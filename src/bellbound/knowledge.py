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


def _ridge_frames(
    n_hat: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Frames ``(s, s')`` with ``n.s' = 0``, where the objective has a kink,
    for an orthonormal basis ``(n_hat, a, b)`` with ``n_hat`` along ``n``.

    ``s'`` turns by the angle alpha in the plane perpendicular to ``n``, and
    ``s`` by beta from ``n`` towards that plane; beta = pi/2 gives the
    double-ridge frames, where ``n.s = 0`` too.
    """
    angles = np.arange(RIDGE_TURNS) * math.pi / RIDGE_TURNS
    alpha, beta = (g.reshape(-1, 1) for g in np.meshgrid(angles, angles))
    s_prime = np.cos(alpha) * a + np.sin(alpha) * b
    s = np.cos(beta) * n_hat + np.sin(beta) * (np.cos(alpha) * b - np.sin(alpha) * a)
    return s, s_prime


def _excess_sums(form: BlochForm, frames: np.ndarray) -> np.ndarray:
    """``(D - P)^2 + (D' - P')^2`` of each frame of a stack (..., 2, 3) of
    signal axes ``(s, s')``."""
    projected = frames @ form.T
    excess = np.maximum(0.0, np.sqrt((projected**2).sum(axis=-1)) - np.abs(frames @ form.n))
    return (excess**2).sum(axis=-1)


def _cross_matrices(axes: np.ndarray) -> np.ndarray:
    """Cross-product matrices ``K a = axis x a`` of a stack of axes (..., 3)."""
    return np.cross(axes[..., None, :], np.eye(3)).swapaxes(-1, -2)


def _distinct_best(form: BlochForm, frames: np.ndarray) -> np.ndarray:
    """The best POLISH_STARTS frames of a stack (N, 2, 3), no two of them
    alike up to ``s -> -s``, ``s' -> -s'`` and ``s <-> s'``."""
    scores = _excess_sums(form, frames)
    s, s_prime = frames[:, 0], frames[:, 1]
    picks = []
    while len(picks) < POLISH_STARTS and np.isfinite(scores).any():
        i = int(np.argmax(scores))
        picks.append(i)
        same = np.minimum(np.abs(s @ s[i]), np.abs(s_prime @ s_prime[i]))
        swapped = np.minimum(np.abs(s @ s_prime[i]), np.abs(s_prime @ s[i]))
        scores[np.maximum(same, swapped) > DISTINCT_COSINE] = -np.inf
    return frames[picks]


def _newton_step(form: BlochForm, frames: np.ndarray, skews: np.ndarray) -> np.ndarray:
    """Safeguarded Newton step of every lane, in the angles of its chart.

    Lane ``k`` moves its frame ``frames[k]`` (2, 3) by the rotations
    ``exp(w_0 K_0) exp(w_1 K_1) ...``, ``K_i = skews[k, i]`` the
    cross-product matrix of the chart's i-th axis.  On the chart the excess
    sum has gradient ``sum_x J_i . g(x)`` and Hessian
    ``sum_x J_i^T H(x) J_j + g(x) . K_i K_j x`` (i <= j), where
    ``J_i = K_i x`` and ``g``, ``H`` are the gradient and Hessian of
    ``h(x) = max(0, |T^T x| - |n.x|)^2``:

        g = 2e (T T^T x / |T^T x| - sign(n.x) n),
        H = 2 grad e grad e^T + 2e (T T^T - u u^T) / |T^T x|,  u = T T^T x / |T^T x|.

    Where ``e = 0`` both vanish, so no lane divides by ``|T^T x| = 0``.  The
    step takes each curvature by its absolute value, floored, so it always
    ascends.
    """
    n, t = form.n, form.T
    y = frames @ t
    r = np.sqrt((y * y).sum(axis=-1))
    c = frames @ n
    e = r - np.abs(c)
    active = e > 0.0
    e = np.where(active, e, 0.0)
    r = np.where(active, r, 1.0)
    u = (y @ t.T) / r[..., None]
    de = u - np.sign(c)[..., None] * n
    grad = (2.0 * e)[..., None] * de
    hess = 2.0 * (
        active[..., None, None] * (de[..., :, None] * de[..., None, :])
        + (e / r)[..., None, None] * (t @ t.T - u[..., :, None] * u[..., None, :])
    )
    jac = np.einsum("kimn,kan->kaim", skews, frames)
    gradient = np.einsum("kam,kaim->ki", grad, jac)
    second = np.einsum("kam,kimn,kjnp,kap->kij", grad, skews, skews, frames)
    second = np.triu(second) + np.triu(second, 1).swapaxes(1, 2)
    hessian = np.einsum("kaim,kamn,kajn->kij", jac, hess, jac) + second
    curvature, basis = np.linalg.eigh(hessian)
    curvature = np.abs(curvature)
    floor = CURVATURE_FLOOR * curvature.max(axis=1, keepdims=True)
    curvature = np.maximum(curvature, np.maximum(floor, np.finfo(float).tiny))
    step = np.einsum("kij,kj->ki", basis, np.einsum("kji,kj->ki", basis, gradient) / curvature)
    return step * (MAX_STEP / np.maximum(np.abs(step).max(axis=1, keepdims=True), MAX_STEP))


def _rotate(frames: np.ndarray, skews: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Frames (k, 2, 3) rotated by ``exp(a_0 K_0) exp(a_1 K_1)`` for each row
    of ``angles`` (k, m, 2): the trial frames, shape (k, m, 2, 3)."""
    rotation = np.eye(3)
    for i in range(skews.shape[1]):
        skew = skews[:, None, i]
        angle = angles[..., i, None, None]
        factor = np.eye(3) + np.sin(angle) * skew + (1.0 - np.cos(angle)) * (skew @ skew)
        rotation = rotation @ factor
    return frames[:, None] @ rotation.swapaxes(-1, -2)


def _polish(form: BlochForm, n_hat: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton ascent on the ridge ``n.s' = 0`` from every start frame at once.

    ``frames`` (k, 2, 3) holds the starts as ``(s, s')`` rows, each with
    ``n.s' = 0``.  Every lane turns its frame about ``n_hat`` (the unit
    ``n``) and about its own ``s'``, the alpha and beta of
    :func:`_ridge_frames`, so it stays on the ridge.  Each iteration tries
    STEP_TRIALS scalings of every lane's Newton step at once and keeps a
    lane's best trial when it gains.  Returns the best polished frame (2, 3)
    and the number of frames evaluated.
    """
    turn_about_n = np.broadcast_to(_cross_matrices(n_hat), (len(frames), 3, 3))
    scales = 0.5 ** np.arange(STEP_TRIALS)
    values = _excess_sums(form, frames)
    running = np.ones(len(frames), dtype=bool)
    evaluations = len(frames)
    lanes = np.arange(len(frames))
    for _ in range(MAX_ITERATIONS):
        skews = np.stack([turn_about_n, _cross_matrices(frames[:, 1])], axis=1)
        step = _newton_step(form, frames, skews)
        trials = _rotate(frames, skews, scales[None, :, None] * step[:, None, :])
        trial_values = _excess_sums(form, trials)
        evaluations += trial_values.size
        best = trial_values.argmax(axis=1)
        gain = trial_values[lanes, best] - values
        moved = running & (gain > 0.0)
        frames = np.where(moved[:, None, None], trials[lanes, best], frames)
        values = np.where(moved, trial_values[lanes, best], values)
        running &= gain > GAIN_TOL
        if not running.any():
            break
    return frames[int(np.argmax(values))], evaluations


def _search(form: BlochForm) -> tuple[np.ndarray, int]:
    """Screen the ridge frames, polish the best distinct ones: the frame
    (2, 3) and the number of frames the polish evaluated."""
    n_hat, a, b = np.linalg.svd(form.n[None, :])[2]
    ridge = np.stack(_ridge_frames(n_hat, a, b), axis=1).reshape(RIDGE_TURNS, RIDGE_TURNS, 2, 3)
    # Row beta = pi/2 is the double ridge, where every frame has the same sum:
    # left in the screen, its frames would all tie and crowd out the rest.
    double = ridge[RIDGE_TURNS // 2, 0]
    single = np.delete(ridge, RIDGE_TURNS // 2, axis=0).reshape(-1, 2, 3)
    frame, evaluations = _polish(form, n_hat, _distinct_best(form, single))
    if _excess_sums(form, double) > _excess_sums(form, frame):
        frame = double
    return frame, evaluations


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
       and ``s <-> s'`` are polished by Newton steps over the two angles
       that keep ``n.s' = 0``, all at once (numpy only).  The best polished
       frame is returned, or a double-ridge frame if its sum is higher.

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
