"""The ridge search of :func:`bellbound.knowledge.optimize_excess_sum`.

A module of its own, imported by that function when a state needs a search,
so that the processes that never search for an optimum do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

from .core import BlochForm

# The screen profiles RIDGE_TURNS angles alpha in [0, pi), a period of the profile.
RIDGE_TURNS = 32
# A slope of the profile no larger than FLAT_SLOPE times the double-ridge sum
# is rounding.  The refinement stops at such a slope, when its bracket stops
# shrinking or after REFINE_STEPS profiles.
FLAT_SLOPE = 1e-10
REFINE_STEPS = 60


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


def _search(form: BlochForm, basis: np.ndarray, m: np.ndarray, nu2: float):
    """Maximize the ridge profile ``F(alpha)`` of :func:`_profile`: the best
    frame (2, 3) and the number of angles alpha profiled.  ``basis``, ``m`` and
    ``nu2`` are ``(n_hat, a, b)``, ``M = T T^T`` in that basis and ``|n|^2``, as
    the flat test of :func:`bellbound.knowledge.optimize_excess_sum` reads them.

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
    h = np.outer(m[0, 1:], m[0, 1:]) - nu2 * m[1:, 1:]
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
