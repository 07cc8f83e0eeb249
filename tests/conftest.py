"""Shared raw-numpy oracles, kept independent of the library's own code paths."""

from __future__ import annotations

import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = [SX, SY, SZ]
I2 = np.eye(2, dtype=complex)


def axis_projectors(axis):
    """(+, -) projectors of a Bloch-axis measurement, built from scratch."""
    a_sigma = axis[0] * SX + axis[1] * SY + axis[2] * SZ
    return 0.5 * (I2 + a_sigma), 0.5 * (I2 - a_sigma)


def polarization_ket(theta_deg):
    theta = np.radians(theta_deg)
    return np.array([np.cos(theta), np.sin(theta)], dtype=complex)


def partial_trace_meter(rho):
    """Trace out the meter (second) qubit of a 4x4 matrix."""
    return rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def partial_trace_signal(rho):
    """Trace out the signal (first) qubit of a 4x4 matrix."""
    return rho.reshape(2, 2, 2, 2).trace(axis1=0, axis2=2)


def trace_oracle(rho, s_axis, m_axis):
    """(K, P, D) by the raw trace path, gamma = tr_S[((S+ - S-) x 1) rho]."""
    s_plus, s_minus = axis_projectors(s_axis)
    gamma = partial_trace_signal((np.kron(s_plus, I2) - np.kron(s_minus, I2)) @ rho)
    m_plus, m_minus = axis_projectors(m_axis)
    k = abs(np.trace(m_plus @ gamma).real) + abs(np.trace(m_minus @ gamma).real)
    p = abs(np.trace(gamma).real)
    d = float(np.sum(np.abs(np.linalg.eigvalsh(gamma))))
    return k, p, d


def coincidence_oracle(rho, m_axis, s_axis):
    """Channel probabilities (++, +-, -+, --), meter sign first, one
    ``tr[(S_b x M_a) rho]`` at a time."""
    sig, met = axis_projectors(s_axis), axis_projectors(m_axis)
    return np.array(
        [np.trace(np.kron(sig[b], met[a]) @ rho).real for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))]
    )


def _excess_sum(form, s, s_prime):
    """Closed-form ``(D - P)^2 + (D' - P')^2`` of the frames ``(s, s')``, by row."""

    def excess(axes):
        return np.maximum(0.0, np.linalg.norm(axes @ form.T, axis=1) - np.abs(axes @ form.n))

    return excess(s) ** 2 + excess(s_prime) ** 2


def _rotation(axis, angle):
    """Rotations by ``angle`` (shape (k,)) about the unit ``axis``, shape (k, 3, 3)."""
    cross = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    c, s = np.cos(angle)[:, None, None], np.sin(angle)[:, None, None]
    return np.eye(3) + s * cross + (1.0 - c) * (cross @ cross)


def _golden_polish(form, frames, sweeps=8, width=0.2, steps=40):
    """Raise the excess sum of each frame (rows ``R`` of shape (k, 3, 3),
    columns ``s``, ``s'``, ``s x s'``) by coordinate-wise golden-section
    searches.  The coordinates are turns of the frame about its own three
    axes and about ``n``; a turn about ``s`` or ``s'`` and one about ``n``
    keep ``n.s`` or ``n.s'``, so a frame can move along a kink of the sum.
    Each sweep takes every coordinate in turn, at the best angle in
    ``[-width, width]`` that ``steps`` golden-section steps find, and halves
    ``width`` for the next.  A turn is kept only where it raises the sum, so
    no frame gets worse."""
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    k = len(frames)
    turns = [lambda angle, e=e: frames @ _rotation(e, angle) for e in np.eye(3)]
    norm = np.linalg.norm(form.n)
    if norm > 1e-12:
        turns.append(lambda angle: _rotation(form.n / norm, angle) @ frames)

    def value(rotated):
        return _excess_sum(form, rotated[:, :, 0], rotated[:, :, 1])

    for _ in range(sweeps):
        for turn in turns:
            lo, hi = np.full(k, -width), np.full(k, width)
            for _ in range(steps):
                left, right = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
                keep_left = value(turn(left)) > value(turn(right))
                hi = np.where(keep_left, right, hi)
                lo = np.where(keep_left, lo, left)
            candidate = turn((lo + hi) / 2.0)
            better = value(candidate) > value(frames)
            frames = np.where(better[:, None, None], candidate, frames)
        width /= 2.0
    return frames


def reference_excess_sum(state, frames=20000, polished=16, confirmed=4):
    """Best ``check_bound`` sum, with Helstrom meters, over signal frames found
    without the library's optimizer.  A fixed-seed uniform draw on SO(3), plus
    the six ordered pairs of singular directions of T, is ranked by the closed
    form ``(D - P)^2 + (D' - P')^2``; the best ``polished`` frames are raised
    by ``_golden_polish``, and the best ``confirmed`` of those are checked, so
    the result is a sum the library certifies as attainable."""
    import bellbound as bb

    q = np.random.default_rng(19950706).normal(size=(frames, 4))
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    s = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)], axis=1)
    s_prime = np.stack([2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)], axis=1)
    form = bb.decompose(state)
    u = np.linalg.svd(form.T)[0]
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    s = np.vstack([s, [u[:, i] for i, _ in pairs]])
    s_prime = np.vstack([s_prime, [u[:, j] for _, j in pairs]])

    best = np.argsort(-_excess_sum(form, s, s_prime))[:polished]
    frames = np.stack([s[best], s_prime[best], np.cross(s[best], s_prime[best])], axis=2)
    frames = _golden_polish(form, frames)
    s, s_prime = frames[:, :, 0], frames[:, :, 1]
    result = -np.inf
    for index in np.argsort(-_excess_sum(form, s, s_prime))[:confirmed]:
        pi_s, pi_s_prime = bb.QubitMeasurement(s[index]), bb.QubitMeasurement(s_prime[index])
        check = bb.check_bound(
            state, pi_s, pi_s_prime, bb.optimal_meter(state, pi_s), bb.optimal_meter(state, pi_s_prime)
        )
        result = max(result, check.sum_of_squares)
    return result


def random_unit_vector(rng, dim=3):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_unitary(rng):
    """Haar-ish random 2x2 unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
