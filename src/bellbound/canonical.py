"""Diagonal-correlation-tensor canonical form and the local-filtering normal form,
iterated on the real matrix ``R_ij = tr rho sigma_i x sigma_j`` (``sigma_0 = 1``)."""

from __future__ import annotations

import math

import numpy as np

from .core import (
    TwoQubitState,
    _array,
    _bloch_split,
    _correlation_stack,
    _density,
    _Frozen,
    _frozen,
    _integer,
    _real,
    _set,
    _unitary,
    _validate_stack,
)
from .errors import NoConvergence, SingularReduction
from .knowledge import BoundCheck, _bell_max_stack, _proper_rotation_factors, optimize_excess_sum

DIAGONAL_TOL = 1e-10
REDUCTION_EIGENVALUE_FLOOR = 1e-8
DEFAULT_FILTER_TOL = 1e-10
DEFAULT_FILTER_MAX_ITER = 10_000


class CanonicalForm(_Frozen):
    """A state rotated so its correlation matrix is diagonal.

    ``diag`` entries are signed and ordered by descending square;
    ``apply_local_unitary(state_bar, u_signal, u_meter)`` reproduces the
    original state.
    """

    __slots__ = ("state_bar", "o_signal", "o_meter", "u_signal", "u_meter", "diag")
    __hash__ = None  # it holds arrays (see _Frozen)

    def __init__(
        self, state_bar: TwoQubitState, o_signal: np.ndarray, o_meter: np.ndarray,
        u_signal: np.ndarray, u_meter: np.ndarray, diag: np.ndarray,
    ):
        _set(self, "state_bar", state_bar)
        values = (o_signal, o_meter, u_signal, u_meter, diag)
        shapes = [((3, 3), float)] * 2 + [((2, 2), complex)] * 2 + [((3,), float)]
        for name, value, (shape, dtype) in zip(self.__slots__[1:], values, shapes):
            _set(self, name, _frozen(_array(value, name, shape, dtype)))


class FilterResult(_Frozen):
    """Outcome of driving a state to Bell-diagonal form by local filtering.

    Both filters are rescaled to largest singular value 1, so each is a valid
    stochastic local operation; ``success_probability`` is the probability
    that both filters pass.  ``deviation_log`` records, per iteration, the
    worst deviation of a reduced state from 1/2.
    """

    __slots__ = (
        "state_out", "f_signal", "f_meter", "success_probability", "iterations", "b_max_in",
        "b_max_out", "deviation_log",
    )
    __hash__ = None  # it holds arrays (see _Frozen)

    def __init__(
        self, state_out: TwoQubitState, f_signal: np.ndarray, f_meter: np.ndarray,
        success_probability: float, iterations: int, b_max_in: float, b_max_out: float,
        deviation_log: tuple[float, ...] = (),
    ):
        _set(self, "state_out", state_out)
        _set(self, "f_signal", _frozen(_array(f_signal, "f_signal", (2, 2), complex)))
        _set(self, "f_meter", _frozen(_array(f_meter, "f_meter", (2, 2), complex)))
        _set(self, "success_probability", success_probability)
        _set(self, "iterations", iterations)
        _set(self, "b_max_in", b_max_in)
        _set(self, "b_max_out", b_max_out)
        _set(self, "deviation_log", deviation_log)


def _is_diagonal(t: np.ndarray) -> bool:
    return float(np.max(np.abs(t - np.diag(np.diag(t))))) < DIAGONAL_TOL


def canonical_form(state: TwoQubitState) -> CanonicalForm:
    """Rotate a state so its correlation matrix becomes diagonal.

    Real SVD of T with both factors forced to proper rotations (signs
    absorbed into the diagonal, which may therefore have negative entries).
    A state whose T is already diagonal with squares in descending order is
    returned unchanged with identity rotations; under degenerate singular
    values any valid factorization branch may be returned.
    """
    rho, *arrays = _canonical(state.matrix)
    if rho is not state.matrix:
        state = TwoQubitState._of(_frozen(_validate_stack(rho[np.newaxis])[0]))
    return CanonicalForm._of(state, *map(_frozen, arrays))


def _canonical(rho: np.ndarray) -> tuple:
    """:func:`canonical_form` of a Hermitian matrix ``rho``, which no rule
    checks: the rotated matrix, unvalidated (``rho`` itself when it is returned
    unchanged), then the arrays of the fields after ``state_bar``."""
    t = _bloch_split(rho[np.newaxis])[2][0]
    diag_entries = np.diag(t).copy()
    squares = diag_entries**2
    if _is_diagonal(t) and squares[0] >= squares[1] >= squares[2]:
        eye3, eye2 = np.eye(3), np.eye(2, dtype=complex)
        return rho, eye3, eye3, eye2, eye2, diag_entries
    o_s, d, o_m = _proper_rotation_factors(t)
    u_s, u_m = _unitary(o_s), _unitary(o_m)
    big = np.kron(u_s.conj().T, u_m.conj().T)
    return big @ rho @ big.conj().T, o_s, o_m, u_s, u_m, d


def _half_step(corr: np.ndarray, f: tuple, side: str) -> tuple[np.ndarray, tuple]:
    """One filter half-step on the side whose Bloch vector is ``v = corr[1:, 0]``
    (``corr`` is R for the signal, R^T for the meter): the new ``corr`` and ``A f``
    for the filter ``A = (1 + v.sigma)^(-1/2)``, 2 x 2 matrices being row-major
    4-tuples (numpy's call overhead exceeds their arithmetic).  A acts on R as a
    Lorentz boost, applied in its eigenbasis to keep exact the small differences a
    nearly pure reduction leaves: with ``e = v/|v|``, the parts ``corr_0j +-
    e.corr_1:j`` of each column scale by ``1 -+ |v|``, the parts across e
    (Householder columns of the one of +-e with e_z >= 0) by ``sqrt(1 - |v|^2)``.
    Raises SingularReduction when ``(1 - |v|)/2``, the reduced state's smaller
    eigenvalue, is below the floor."""
    x, y, z = corr[1:, 0].tolist()
    r = math.hypot(x, y, z)
    if (1.0 - r) / 2.0 < REDUCTION_EIGENVALUE_FLOOR:
        raise SingularReduction(side, (1.0 - r) / 2.0)
    g = math.sqrt((1.0 - r) * (1.0 + r))
    e = [x / r, y / r, z / r] if r > 0.0 else [0.0, 0.0, 1.0]
    ex, ey, ez = e if e[2] >= 0.0 else [-c for c in e]
    k = 1.0 / (1.0 + ez)
    basis = np.array([[1.0, *e], [1.0, -e[0], -e[1], -e[2]],
                      [0.0, 1.0 - k * ex * ex, -k * ex * ey, -ex],
                      [0.0, -k * ex * ey, 1.0 - k * ey * ey, -ey]])
    out = basis.T @ (np.array([[(1.0 - r) / 2.0], [(1.0 + r) / 2.0], [g], [g]]) * (basis @ corr))
    s = 1.0 / (g * math.sqrt(2.0 * (1.0 + g)))
    a0, a1, a2, a3 = (1.0 + g - z) * s, (-x + 1j * y) * s, (-x - 1j * y) * s, (1.0 + g + z) * s
    f0, f1, f2, f3 = f
    product = (a0 * f0 + a1 * f2, a0 * f1 + a1 * f3, a2 * f0 + a3 * f2, a2 * f1 + a3 * f3)
    return out / out[0, 0], product


def _deviation(corr: np.ndarray) -> float:
    """Largest entry of ``|rho_S - 1/2|`` and ``|rho_M - 1/2|``, read off
    ``R``: half of ``max(|v_z|, hypot(v_x, v_y))`` for each local Bloch vector."""
    return max(max(abs(z), math.hypot(x, y)) / 2.0
               for x, y, z in (corr[1:, 0].tolist(), corr[0, 1:].tolist()))


def filter_normal_form(
    state: TwoQubitState,
    tol: float = DEFAULT_FILTER_TOL,
    max_iter: int = DEFAULT_FILTER_MAX_ITER,
) -> FilterResult:
    """Drive a state to Bell-diagonal form by alternating local filters.

    Each round applies ``(2 rho_S)^(-1/2)`` on the signal side and then
    ``(2 rho_M)^(-1/2)`` on the meter side, renormalizing after each, until both
    reductions are within ``tol`` of 1/2.  The rounds act on ``R = [[1, m^T], [n, T]]``,
    where a local filter is a Lorentz boost (Verstraete, Dehaene & De Moor, PRA 64,
    010101(R), 2001; see ``_half_step``).  A final canonical rotation (skipped when
    T is already diagonal) brings the state to Bell-diagonal form with a Bell
    factor at least as large as the input's.  ``tol`` must be a finite int or
    float > 0 and ``max_iter`` an integer, at least 1 (ValueError).
    """
    tol = _real(tol, "filter tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"filter tol must be a finite number > 0, got {tol}")
    if _integer(max_iter, "filter max_iter") < 1:
        raise ValueError(f"filter max_iter must be >= 1, got {max_iter}")
    # R with R_00 = 1, as BlochForm.R sets it, and C-contiguous as that is.
    corr = np.ascontiguousarray(_correlation_stack(state.matrix[np.newaxis])[0])
    corr[0, 0] = 1.0
    t_in = corr[1:, 1:]
    f_signal = f_meter = (1.0, 0.0, 0.0, 1.0)
    deviations: list[float] = []
    iterations = 0
    if _deviation(corr) > tol:
        for iterations in range(1, max_iter + 1):
            corr, f_signal = _half_step(corr, f_signal, "signal")
            corr, f_meter = _half_step(corr.T, f_meter, "meter")
            corr = corr.T
            deviations.append(_deviation(corr))
            if deviations[-1] <= tol:
                break
        else:
            raise NoConvergence(max_iter, deviations[-1])

    f_signal, f_meter = (np.array(f, dtype=complex).reshape(2, 2) for f in (f_signal, f_meter))
    # Validated only at exit: mirrored entries sum the same exact Pauli
    # products in the same order, so the matrix is Hermitian to the bit.
    rho = _density(corr)
    if not _is_diagonal(corr[1:, 1:]):
        rho, _, _, u_s, u_m, _ = _canonical(rho)
        f_signal = u_s.conj().T @ f_signal
        f_meter = u_m.conj().T @ f_meter
    state_out = TwoQubitState._of(_frozen(_validate_stack(rho[np.newaxis])[0]))

    f_signal = f_signal / np.linalg.svd(f_signal, compute_uv=False)[0]
    f_meter = f_meter / np.linalg.svd(f_meter, compute_uv=False)[0]
    big = np.kron(f_signal, f_meter)
    success = float((big @ state.matrix @ big.conj().T).trace().real)
    b_max_in, b_max_out = _bell_max_stack(np.stack([t_in, corr[1:, 1:]])).tolist()
    return FilterResult._of(
        state_out, _frozen(f_signal), _frozen(f_meter), success, iterations, b_max_in, b_max_out,
        tuple(deviations),
    )


def saturate_after_filter(state: TwoQubitState) -> tuple[FilterResult, BoundCheck]:
    """Filter to Bell-diagonal form, then optimize the excess sum on the result.

    Bell-diagonal states have maximally disordered local states (``n = 0``),
    so the optimized sum saturates the bound.  The filter stops with ``|n|``
    of the order of its tolerance, which leaves the sum about 1e-10 below the
    bound (at most 4.0e-10 on ``random_state(seed, 4)``, seeds 0-99).  That is
    within ``knowledge.CERTIFY_TOL`` (1e-9), so ``optimize_excess_sum`` returns
    the seed frame without a search, certified optimal to that accuracy.
    """
    result = filter_normal_form(state)
    optimum = optimize_excess_sum(result.state_out)
    return result, optimum.check
