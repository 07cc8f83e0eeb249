"""Local unitaries and rotations of a two-qubit state, and its expansion over
the outcomes of a signal measurement.

A module of its own, apart from :mod:`bellbound.core`, so that the commands
that never turn a state or expand it (``sweep``, ``surface``, ``simulate`` and
``verify``) do not compile it.  A local unitary acts on the correlation
matrix R: :func:`_rotated` is the one rotation of R's blocks.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    ID2,
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    VALIDATION_TOL,
    QubitMeasurement,
    TwoQubitState,
    _array,
    _arrays,
    _correlation_stack,
    _density,
    _Frozen,
    _frozen,
    _rotation_stack,
    _validate_stack,
)
from .errors import NotRotation, NotUnitary

ROTATION_TOL = 1e-8
DEGENERATE_WEIGHT = 1e-12

# O_kl = 1/2 tr(sigma_k U sigma_l U^dag) is _ADJOINT @ (U x U*), indexed (k, l) and (a, b, d, c).
_ADJOINT = 0.5 * np.einsum("kda,lbc->klabdc", PAULI, PAULI).reshape(9, 16)


class ConditionalDecomposition(_Frozen):
    """Expansion of a state over the two outcomes of a signal measurement.

    ``w`` and ``w_perp`` are the outcome probabilities, ``rho_M`` and
    ``rho_M_perp`` the conditional meter states, and ``chi_M`` the coherence
    block between the two signal outcomes.  When a weight falls below 1e-12
    the corresponding conditional is undefined; it is stored as a zero matrix
    and ``degenerate`` is set.
    """

    __slots__ = ("w", "w_perp", "rho_M", "rho_M_perp", "chi_M", "degenerate")
    _rules = dict.fromkeys(("rho_M", "rho_M_perp", "chi_M"), _arrays((2, 2), complex))
    _defaults = {"degenerate": False}


def _check_unitary(u, name: str = "U") -> np.ndarray:
    u = _array(u, f"unitary {name}", (2, 2), complex)
    deviation = float(np.max(np.abs(u.conj().T @ u - ID2)))
    if deviation >= VALIDATION_TOL:
        raise NotUnitary(deviation)
    return u


def apply_local_unitary(state: TwoQubitState, u_signal, u_meter) -> TwoQubitState:
    """Conjugate the state by ``u_signal (x) u_meter``, each a complex 2x2 unitary.

    The conjugation turns the blocks of R (:func:`_rotated`) by the rotation
    ``O`` of each unitary under the adjoint map: ``T -> O_S T O_M^T``.
    """
    o_s = _rotation(_check_unitary(u_signal, "u_signal"))
    o_m = _rotation(_check_unitary(u_meter, "u_meter"))
    rho = _density(_rotated(_correlation_stack(state.matrix[np.newaxis])[0], o_s, o_m))
    return TwoQubitState._of(_frozen(_validate_stack(rho[np.newaxis])[0]))


def _rotated(corr: np.ndarray, o_s: np.ndarray, o_m: np.ndarray) -> np.ndarray:
    """``diag(1, o_s) R diag(1, o_m)^T``: R of a state turned by the local unitaries of
    rotations ``o_s`` and ``o_m`` (``n -> o_s n``, ``m -> o_m m``, ``T -> o_s T o_m^T``)."""
    out = corr.copy()
    out[1:] = o_s @ corr[1:]  # the rows of n and T
    out[:, 1:] = out[:, 1:] @ o_m.T  # the columns of m and T
    return out


def rotation_of_unitary(u) -> np.ndarray:
    """The unique rotation O with ``U (v.sigma) U^dag = (O v).sigma`` for all v (U 2x2)."""
    return _frozen(_rotation(_check_unitary(u)))


def _rotation(u: np.ndarray) -> np.ndarray:
    """:func:`rotation_of_unitary` of a 2x2 unitary that no rule checks."""
    return (_ADJOINT @ np.outer(u, u.conj()).ravel()).real.reshape(3, 3)


def _quaternion_from_rotation(o: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a proper rotation, Shepperd's method."""
    trace = float(np.trace(o))
    if trace > 0.0:
        s = 2.0 * math.sqrt(1.0 + trace)
        q = np.array(
            [0.25 * s, (o[2, 1] - o[1, 2]) / s, (o[0, 2] - o[2, 0]) / s, (o[1, 0] - o[0, 1]) / s]
        )
    elif o[0, 0] > o[1, 1] and o[0, 0] > o[2, 2]:
        s = 2.0 * math.sqrt(1.0 + o[0, 0] - o[1, 1] - o[2, 2])
        q = np.array(
            [(o[2, 1] - o[1, 2]) / s, 0.25 * s, (o[0, 1] + o[1, 0]) / s, (o[0, 2] + o[2, 0]) / s]
        )
    elif o[1, 1] > o[2, 2]:
        s = 2.0 * math.sqrt(1.0 + o[1, 1] - o[0, 0] - o[2, 2])
        q = np.array(
            [(o[0, 2] - o[2, 0]) / s, (o[0, 1] + o[1, 0]) / s, 0.25 * s, (o[1, 2] + o[2, 1]) / s]
        )
    else:
        s = 2.0 * math.sqrt(1.0 + o[2, 2] - o[0, 0] - o[1, 1])
        q = np.array(
            [(o[1, 0] - o[0, 1]) / s, (o[0, 2] + o[2, 0]) / s, (o[1, 2] + o[2, 1]) / s, 0.25 * s]
        )
    return q / np.linalg.norm(q)


def rotation_from_quaternion(q) -> np.ndarray:
    """Rotation matrix of a (not necessarily normalized) real quaternion (w, x, y, z),
    whose norm ``sqrt(q.q)`` must be finite and nonzero (ValueError)."""
    q = _array(q, "quaternion", (4,))
    # An overflow leaves an inf norm, and a NaN fails the test.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(q))
    if not 0.0 < norm < math.inf:
        raise ValueError(f"quaternion norm must be finite and nonzero, got {norm}")
    return _rotation_stack(q[np.newaxis])[0]


def unitary_from_rotation(o) -> np.ndarray:
    """Inverse of the adjoint map: a 2x2 unitary whose rotation is ``o``, a real 3x3 array.

    The result is fixed up to a global phase; the convention is that the
    first non-vanishing quaternion component is positive.
    """
    o = _array(o, "rotation matrix", (3, 3), error=NotRotation)
    # An overflow leaves an inf or NaN deviation, and a NaN fails the test.
    with np.errstate(over="ignore", invalid="ignore"):
        ortho = float(np.max(np.abs(o.T @ o - np.eye(3))))
    if not ortho <= ROTATION_TOL:
        raise NotRotation(f"max |O^T O - 1| = {ortho:.6e} (limit {ROTATION_TOL})")
    det = float(np.linalg.det(o))
    if abs(det - 1.0) > ROTATION_TOL:
        raise NotRotation(f"det O = {det:.12f}, expected +1 (limit {ROTATION_TOL})")
    return _frozen(_unitary(o))


def _unitary(o: np.ndarray) -> np.ndarray:
    """:func:`unitary_from_rotation` of a proper rotation that no rule checks."""
    q = _quaternion_from_rotation(o)
    for component in q:
        if abs(component) > 1e-8:
            if component < 0.0:
                q = -q
            break
    w, x, y, z = q
    return w * ID2 - 1j * (x * SIGMA_X + y * SIGMA_Y + z * SIGMA_Z)


def measurement_kets(measurement: QubitMeasurement) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (+, -) eigenvectors of ``a.sigma`` (phase convention internal)."""
    x, y, z = measurement.axis
    if 1.0 + z >= 1.0 - z:
        plus = np.array([1.0 + z, x + 1j * y])
    else:
        plus = np.array([x - 1j * y, 1.0 - z])
    plus = plus / np.linalg.norm(plus)
    minus = np.array([-np.conj(plus[1]), np.conj(plus[0])])
    return _frozen(plus), _frozen(minus)


def conditional_decompose(state: TwoQubitState, pi_signal: QubitMeasurement) -> ConditionalDecomposition:
    """Expand the state over the outcomes of a signal measurement.

    Reassembling ``w |+><+| x rho_M + w_perp |-><-| x rho_M_perp +
    sqrt(w w_perp) (|+><-| x chi_M + h.c.)`` reproduces the input state.
    """
    plus, minus = measurement_kets(pi_signal)
    rho = state.matrix.reshape(2, 2, 2, 2)  # indices: signal, meter, signal', meter'
    block_pp = np.einsum("s,smtn,t->mn", plus.conj(), rho, plus)
    block_mm = np.einsum("s,smtn,t->mn", minus.conj(), rho, minus)
    block_pm = np.einsum("s,smtn,t->mn", plus.conj(), rho, minus)
    w = float(block_pp.trace().real)
    w_perp = float(block_mm.trace().real)
    degenerate = w < DEGENERATE_WEIGHT or w_perp < DEGENERATE_WEIGHT
    zero = np.zeros((2, 2), dtype=complex)
    rho_m = block_pp / w if w >= DEGENERATE_WEIGHT else zero
    rho_m_perp = block_mm / w_perp if w_perp >= DEGENERATE_WEIGHT else zero
    chi = block_pm / math.sqrt(w * w_perp) if not degenerate else zero
    blocks = map(_frozen, (rho_m, rho_m_perp, chi))
    return ConditionalDecomposition._of(w, w_perp, *blocks, degenerate)
