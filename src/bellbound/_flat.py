"""The closed-form flat test of :func:`bellbound.knowledge.optimize_excess_sum`.

A module of its own, imported by that function when a state is not
certified, so that the processes that never run it do not compile it.
"""

from __future__ import annotations

import math

import numpy as np

# The flat test calls a state flat only where its criterion f is at most
# -FLAT_MARGIN (tr M + |n|^2)^2, a margin about 1000 times the rounding of f,
# whose terms are each at most (tr M + |n|^2)^2.  Nearer to equality, a state
# goes to the search.
FLAT_MARGIN = 1e-12


def _top_eigenvalue(x: float, y: float, z: float) -> float:
    """The larger eigenvalue of the symmetric 2x2 matrix ``[[x, y], [y, z]]``."""
    return 0.5 * (x + z) + math.hypot(0.5 * (x - z), y)


def _flat_terms(a, nu2, p11, p21, p22, h11, h21, h22) -> tuple:
    """``(p0, p1, p2, q0, q1, q2)`` with ``P = p0 + p1 cos 2alpha + p2 sin 2alpha``
    and ``w^T H w = q0 + q1 cos 2alpha + q2 sin 2alpha``, for ``w = (-sin alpha,
    cos alpha)`` in the plane perpendicular to ``n`` (see :func:`_is_flat`)."""
    return (
        a - nu2 - 0.5 * (p11 + p22), 0.5 * (p11 - p22), p21,
        0.5 * (h11 + h22), 0.5 * (h22 - h11), -h21,
    )


def _slope_quartic(p0, p1, p2, q1, q2) -> list:
    """The coefficients, highest first, of the quartic ``(1 + t^2)^2 g'(theta)``
    in ``t = tan(theta / 2)``, where ``g = P^2 + 4 w^T H w`` with the terms of
    :func:`_flat_terms` and ``theta = 2 alpha``, so ``t = tan alpha``.  With
    ``g' = k1 cos 2theta + k2 sin 2theta + k3 cos theta - k4 sin theta``, it
    is ``k1 (1 - 6t^2 + t^4) + 4 k2 t (1 - t^2) + k3 (1 - t^4) - 2 k4 t (1 + t^2)``."""
    k1, k2 = 2.0 * p1 * p2, p2 * p2 - p1 * p1
    k3, k4 = 2.0 * p0 * p2 + 4.0 * q2, 2.0 * p0 * p1 + 4.0 * q1
    return [k1 - k3, -4.0 * k2 - 2.0 * k4, -6.0 * k1, 4.0 * k2 - 2.0 * k4, k1 + k3]


def _is_flat(m: np.ndarray, nu2: float) -> bool:
    """Whether the ridge profile of :func:`~bellbound.knowledge.optimize_excess_sum` is flat, in
    closed form: ``F(alpha) = D0`` for every alpha, where ``D0 = tr M - A`` is
    the sum of every frame on the double ridge.

    ``m`` is ``M = T T^T`` in the basis ``(n_hat, a, b)``, so ``A = m[0, 0]``,
    ``c = m[0, 1:]`` and ``P_plane = m[1:, 1:]``; ``nu2 = |n|^2`` and ``H = c
    c^T - nu2 P_plane``.  On the ridge, ``w = (-sin alpha, cos alpha)`` in
    the plane, ``B = w^T c``, ``C = w^T P_plane w``, and for beta in
    ``(-pi/2, pi/2)`` the sum is ``G = D0 - C + max(0, sqrt(q) - nu cos
    beta)^2`` with ``q = A cos^2 beta + 2B cos beta sin beta + C sin^2 beta``;
    at beta = pi/2 it is D0.  So ``F(alpha) <= D0`` exactly when, for every
    beta with ``cos beta > 0``, ``sqrt(q) <= sqrt(C) + nu cos beta``.  Both
    sides are at least 0, so this holds exactly when its square does, and

        (sqrt(C) + nu cos beta)^2 - q = cos beta (2 nu sqrt(C) - P cos beta - 2B sin beta)

    with ``P = A - C - nu^2``.  Dividing by ``cos beta > 0``, the test is
    ``P cos beta + 2B sin beta <= 2 nu sqrt(C)`` on the open half circle,
    whose supremum on the left is ``sqrt(max(P, 0)^2 + 4B^2)`` (attained at
    ``cos beta = P / sqrt(P^2 + 4B^2)`` where P > 0, approached at beta ->
    +-pi/2 otherwise).  Squared again, ``F(alpha) <= D0`` exactly when

        f(alpha) = max(P, 0)^2 + 4 w^T H w <= 0,

    since ``(2B)^2 - 4 nu^2 C = 4 w^T (c c^T - nu^2 P_plane) w``.  P and
    ``w^T H w`` are trigonometric polynomials of degree 1 in 2 alpha (see
    :func:`_flat_terms`), and the verdict takes three steps:

    1. Where ``lambda_max(H)`` is above ``-margin/4`` (margin:
       ``FLAT_MARGIN (tr M + nu^2)^2``), f exceeds ``-margin`` at the top
       eigenvector: not flat (to the margin).
    2. Otherwise f is at most ``-margin`` wherever ``P <= 0``.  If also
       ``lambda_max((A - nu^2) 1 - P_plane) <= 0``, P is at most 0 for every
       alpha: flat.
    3. Otherwise f is at most ``-margin`` where ``P <= 0``, and where P > 0 it
       is ``g = P^2 + 4 w^T H w``, a trigonometric polynomial of degree 2 in
       ``theta = 2 alpha``.  Its maximum there lies at a root of
       ``g'(theta)``, or at an end of an arc where ``P = 0``, where ``f <=
       -margin``.  Those roots are ``alpha = arctan t`` at the real roots t
       of a quartic (:func:`_slope_quartic`), or alpha = pi/2, where its
       degree drops.  The real parts of all four roots and pi/2 are the
       candidates, and the state is flat when f is at most ``-margin`` at
       each.
    """
    (a, c1, c2), (_, p11, _), (_, p21, p22) = m.tolist()
    # H entry by entry, as _ridge._search builds it (the lower triangle)
    h11, h21, h22 = c1 * c1 - nu2 * p11, c2 * c1 - nu2 * p21, c2 * c2 - nu2 * p22
    margin = FLAT_MARGIN * (a + p11 + p22 + nu2) ** 2
    if 4.0 * _top_eigenvalue(h11, h21, h22) > -margin:
        return False
    if _top_eigenvalue(a - nu2 - p11, -p21, a - nu2 - p22) <= 0.0:
        return True
    p0, p1, p2, q0, q1, q2 = _flat_terms(a, nu2, p11, p21, p22, h11, h21, h22)
    alpha = np.append(np.arctan(np.roots(_slope_quartic(p0, p1, p2, q1, q2)).real), math.pi / 2)
    cos, sin = np.cos(2.0 * alpha), np.sin(2.0 * alpha)
    f = np.maximum(p0 + p1 * cos + p2 * sin, 0.0) ** 2 + 4.0 * (q0 + q1 * cos + q2 * sin)
    return bool(f.max() <= -margin)
