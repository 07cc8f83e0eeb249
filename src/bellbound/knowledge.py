"""Knowledge, knowledge excess, distinguishability, and the Bell-factor bound.

Every quantity is evaluated in closed form on the Bloch decomposition
``(n, m, T)`` of the state.  The test suite checks these forms against a
direct trace over the conditional meter states.
"""

from __future__ import annotations

import functools
import itertools
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
    _readonly,
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
    """Measurement quadruple maximizing the excess sum, plus the bound check."""

    pi_s: QubitMeasurement
    pi_s_prime: QubitMeasurement
    pi_m: QubitMeasurement
    pi_m_prime: QubitMeasurement
    check: BoundCheck


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
    for axes in (s, s_prime, m, m_prime):
        deviation = np.abs(np.linalg.norm(axes, axis=1) - 1.0)
        if np.any(deviation > UNIT_AXIS_TOL):
            raise ValueError(
                f"measurement axis must be a unit vector: | |a| - 1 | = {deviation.max():.3e}"
                f" (limit {UNIT_AXIS_TOL})"
            )
    dot = np.einsum("Nk,Nk->N", s, s_prime)
    overlapping = np.flatnonzero(np.abs(dot) > COMPLEMENTARITY_TOL)
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


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first use: only the optimizer needs scipy."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


# The fixed screening grid: GRID_DIRECTIONS Fibonacci points s on the upper
# hemisphere, each with GRID_TURNS axes s' spread over half a turn of the plane
# perpendicular to s (s -> -s and s' -> -s' leave the objective unchanged).
GRID_DIRECTIONS = 128
GRID_TURNS = 16
# The ridge grid: RIDGE_TURNS x RIDGE_TURNS frames with s' perpendicular to n.
RIDGE_TURNS = 32
# Frames are polished from the best POLISH_STARTS screened candidates that are
# pairwise further apart than DISTINCT_COSINE allows, up to the symmetries.
POLISH_STARTS = 3
DISTINCT_COSINE = 0.98
# Nelder-Mead's first simplex spans about half the grid spacing, in radians.
POLISH_STEP = 0.1
# (xatol, fatol) of the polish from each start, and of the restarts.
SCREEN_POLISH_TOL = (1e-6, 1e-10)
FINAL_POLISH_TOL = (1e-10, 1e-12)
MAX_RESTARTS = 5
# A frame whose sum is within CERTIFY_TOL of the bound is within CERTIFY_TOL of
# the optimum, the accuracy the library promises (slacks are floored at -1e-9).
# It covers filtered states: the filter's tolerance leaves |n| ~ 1e-10, which
# puts the seed ~1e-10 below the bound.
CERTIFY_TOL = 1e-9


@functools.cache
def _frame_grid() -> tuple[np.ndarray, np.ndarray]:
    """Fixed screening frames ``(s, s')``, two (N, 3) arrays, built on first use."""
    k = np.arange(GRID_DIRECTIONS)
    cos_theta = (k + 0.5) / GRID_DIRECTIONS
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    phi = k * math.pi * (3.0 - math.sqrt(5.0))
    s = np.stack([sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta], axis=1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)], axis=1)
    e_theta = np.cross(e_phi, s)
    psi = (np.arange(GRID_TURNS) * math.pi / GRID_TURNS)[None, :, None]
    s_prime = np.cos(psi) * e_phi[:, None, :] + np.sin(psi) * e_theta[:, None, :]
    return _readonly(np.repeat(s, GRID_TURNS, axis=0)), _readonly(s_prime.reshape(-1, 3))


def _ridge_frames(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frames ``(s, s')`` with ``n.s' = 0``, where the objective has a kink.

    ``s'`` turns by the angle alpha in the plane perpendicular to ``n``, and
    ``s`` by beta from ``n`` towards that plane; beta = pi/2 gives the
    double-ridge frames, where ``n.s = 0`` too.
    """
    n_hat, a, b = np.linalg.svd(n[None, :])[2]
    angles = np.arange(RIDGE_TURNS) * math.pi / RIDGE_TURNS
    alpha, beta = (g.reshape(-1, 1) for g in np.meshgrid(angles, angles))
    s_prime = np.cos(alpha) * a + np.sin(alpha) * b
    s = np.cos(beta) * n_hat + np.sin(beta) * (np.cos(alpha) * b - np.sin(alpha) * a)
    return s, s_prime


def _rotation(rotvec: np.ndarray) -> np.ndarray:
    """Rotation matrix of a rotation vector, by Rodrigues' formula."""
    x, y, z = rotvec.tolist()
    angle = math.sqrt(x * x + y * y + z * z)
    if angle == 0.0:
        return np.eye(3)
    a = math.sin(angle) / angle
    b = 2.0 * (math.sin(0.5 * angle) / angle) ** 2
    return np.array(
        [
            [1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
            [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
            [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def _excess_sums(form: BlochForm, s: np.ndarray, s_prime: np.ndarray) -> np.ndarray:
    """``(D - P)^2 + (D' - P')^2`` for stacks of signal axes, shape (N, 3)."""

    def excess(axes: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, np.linalg.norm(axes @ form.T, axis=1) - np.abs(axes @ form.n))

    return excess(s) ** 2 + excess(s_prime) ** 2


def _distinct_best(scores: np.ndarray, s: np.ndarray, s_prime: np.ndarray) -> list[int]:
    """Indices of the best POLISH_STARTS frames, no two of them alike up to
    ``s -> -s``, ``s' -> -s'`` and ``s <-> s'``."""
    scores = scores.copy()
    picks = []
    while len(picks) < POLISH_STARTS and np.isfinite(scores).any():
        i = int(np.argmax(scores))
        picks.append(i)
        same = np.minimum(np.abs(s @ s[i]), np.abs(s_prime @ s_prime[i]))
        swapped = np.minimum(np.abs(s @ s_prime[i]), np.abs(s_prime @ s[i]))
        scores[np.maximum(same, swapped) > DISTINCT_COSINE] = -np.inf
    return picks


def _polish(
    projection: np.ndarray, start: np.ndarray, tol: tuple[float, float]
) -> tuple[np.ndarray, float]:
    """Nelder-Mead over rotation vectors applied to the frame ``start`` (3, 2),
    with ``projection`` = ``[T^T; n]``: the best frame and its negated sum."""

    def negated_objective(rotvec: np.ndarray) -> float:
        projected = projection @ (_rotation(rotvec) @ start)
        excess = np.maximum(0.0, np.sqrt((projected[:3] ** 2).sum(axis=0)) - np.abs(projected[3]))
        return -float(excess @ excess)

    result = minimize(
        negated_objective,
        np.zeros(3),
        method="Nelder-Mead",
        options={
            "xatol": tol[0],
            "fatol": tol[1],
            "maxiter": 4000,
            "initial_simplex": np.vstack([np.zeros(3), POLISH_STEP * np.eye(3)]),
        },
    )
    return _rotation(result.x) @ start, float(result.fun)


def _search(form: BlochForm, u: np.ndarray) -> np.ndarray:
    """Screen candidate frames, polish the best distinct ones: the frame (3, 2)."""
    i, j = np.array(list(itertools.permutations(range(3), 2))).T
    grid_s, grid_s_prime = _frame_grid()
    ridge_s, ridge_s_prime = _ridge_frames(form.n)
    s = np.vstack([u[:, i].T, ridge_s, grid_s])
    s_prime = np.vstack([u[:, j].T, ridge_s_prime, grid_s_prime])
    projection = np.vstack([form.T.T, form.n])
    polished = [
        _polish(projection, np.stack([s[k], s_prime[k]], axis=1), SCREEN_POLISH_TOL)
        for k in _distinct_best(_excess_sums(form, s, s_prime), s, s_prime)
    ]
    frame, value = min(polished, key=lambda result: result[1])
    # Nelder-Mead stalls on a kink; a fresh simplex moves it on.
    for _ in range(MAX_RESTARTS):
        restarted, restarted_value = _polish(projection, frame, FINAL_POLISH_TOL)
        gain = value - restarted_value
        if gain > 0.0:
            frame, value = restarted, restarted_value
        if gain <= FINAL_POLISH_TOL[1]:
            break
    return frame


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
    2. Screen: otherwise the closed-form sum is evaluated in one numpy pass
       over the six ordered pairs of singular directions, the ridge frames
       where ``n.s' = 0`` (among them the double-ridge frames, where also
       ``n.s = 0``), and a fixed grid of 2048 frames built on first use.
    3. Polish: Nelder-Mead (scipy, imported on first use) refines each of
       the best three screened frames that are distinct up to the symmetries
       ``s -> -s``, ``s' -> -s'`` and ``s <-> s'``, over a rotation vector
       applied to the start frame.  Nelder-Mead stalls on the kinks, so the
       best result is restarted from a fresh simplex, at tighter tolerances,
       while that gains more than 1e-12 (at most ``MAX_RESTARTS`` times).

    The result's ``check`` is :func:`check_bound` with :func:`optimal_meter`
    meters on the returned signal pair.
    """
    form = decompose(state)
    u = np.linalg.svd(form.T)[0]
    bound = (_bell_max(form) / 2.0) ** 2
    if _excess_sums(form, u[:, :1].T, u[:, 1:2].T)[0] >= bound - CERTIFY_TOL:
        s, s_prime = u[:, 0], u[:, 1]
    else:
        s, s_prime = _search(form, u).T
    pi_s = QubitMeasurement(s)
    pi_s_prime = QubitMeasurement(s_prime)
    pi_m = optimal_meter(state, pi_s)
    pi_m_prime = optimal_meter(state, pi_s_prime)
    check = check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    return ExcessOptimum(pi_s, pi_s_prime, pi_m, pi_m_prime, check)
