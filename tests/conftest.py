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
