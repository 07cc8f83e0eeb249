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


def reference_excess_sum(state, frames=20000, confirmed=4):
    """Best ``check_bound`` sum, with Helstrom meters, over a fixed set of
    signal frames: a fixed-seed uniform draw on SO(3) plus the six ordered
    pairs of singular directions of T.  Frames are ranked by the closed form
    ``(D - P)^2 + (D' - P')^2`` and the best ``confirmed`` are checked, so
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

    def excess(axes):
        return np.maximum(0.0, np.linalg.norm(axes @ form.T, axis=1) - np.abs(axes @ form.n))

    best = -np.inf
    for index in np.argsort(-(excess(s) ** 2 + excess(s_prime) ** 2))[:confirmed]:
        pi_s, pi_s_prime = bb.QubitMeasurement(s[index]), bb.QubitMeasurement(s_prime[index])
        check = bb.check_bound(
            state, pi_s, pi_s_prime, bb.optimal_meter(state, pi_s), bb.optimal_meter(state, pi_s_prime)
        )
        best = max(best, check.sum_of_squares)
    return best


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
