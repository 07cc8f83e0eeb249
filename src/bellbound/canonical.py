"""Diagonal-correlation-tensor canonical form and the local-filtering normal form."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ID2,
    TwoQubitState,
    apply_local_unitary,
    decompose,
    unitary_from_rotation,
    validate_state,
    _readonly,
)
from .errors import NoConvergence, SingularReduction
from .knowledge import BoundCheck, _proper_rotation_factors, bell_max, optimize_excess_sum

DIAGONAL_TOL = 1e-10
REDUCTION_EIGENVALUE_FLOOR = 1e-8
DEFAULT_FILTER_TOL = 1e-10
DEFAULT_FILTER_MAX_ITER = 10_000


@dataclass(frozen=True)
class CanonicalForm:
    """A state rotated so its correlation matrix is diagonal.

    ``diag`` entries are signed and ordered by descending square;
    ``apply_local_unitary(state_bar, u_signal, u_meter)`` reproduces the
    original state.
    """

    state_bar: TwoQubitState
    o_signal: np.ndarray
    o_meter: np.ndarray
    u_signal: np.ndarray
    u_meter: np.ndarray
    diag: np.ndarray

    def __post_init__(self):
        for name in ("o_signal", "o_meter", "diag"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        for name in ("u_signal", "u_meter"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))


@dataclass(frozen=True)
class FilterResult:
    """Outcome of driving a state to Bell-diagonal form by local filtering.

    Both filters are rescaled to largest singular value 1, so each is a valid
    stochastic local operation; ``success_probability`` is the probability
    that both filters pass.  ``deviation_log`` records, per iteration, the
    worst deviation of a reduced state from 1/2.
    """

    state_out: TwoQubitState
    f_signal: np.ndarray
    f_meter: np.ndarray
    success_probability: float
    iterations: int
    b_max_in: float
    b_max_out: float
    deviation_log: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("f_signal", "f_meter"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))


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
    t = decompose(state).T
    diag_entries = np.diag(t).copy()
    squares = diag_entries**2
    if _is_diagonal(t) and squares[0] >= squares[1] >= squares[2]:
        eye3 = np.eye(3)
        return CanonicalForm(state, eye3, eye3, ID2, ID2, diag_entries)
    o_s, d, o_m = _proper_rotation_factors(t)
    u_s = unitary_from_rotation(o_s)
    u_m = unitary_from_rotation(o_m)
    state_bar = apply_local_unitary(state, u_s.conj().T, u_m.conj().T)
    return CanonicalForm(state_bar, o_s, o_m, u_s, u_m, d)


def _reduced_states(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    tensor = rho.reshape(2, 2, 2, 2)
    return np.einsum("smtm->st", tensor), np.einsum("smsn->mn", tensor)


def _deviation_from_maximally_mixed(rho: np.ndarray) -> float:
    rho_s, rho_m = _reduced_states(rho)
    half = ID2 / 2.0
    return max(float(np.max(np.abs(rho_s - half))), float(np.max(np.abs(rho_m - half))))


def _inverse_sqrt_of_doubled(reduced: np.ndarray, side: str) -> np.ndarray:
    """(2 rho)^(-1/2) for a single-qubit reduced state, with a rank floor."""
    eigenvalues, vectors = np.linalg.eigh(reduced)
    if eigenvalues[0] < REDUCTION_EIGENVALUE_FLOOR:
        raise SingularReduction(side, float(eigenvalues[0]))
    return (vectors * (1.0 / np.sqrt(2.0 * eigenvalues))) @ vectors.conj().T


def filter_normal_form(
    state: TwoQubitState,
    tol: float = DEFAULT_FILTER_TOL,
    max_iter: int = DEFAULT_FILTER_MAX_ITER,
) -> FilterResult:
    """Drive a state to Bell-diagonal form by alternating local filters.

    Each round applies ``(2 rho_S)^(-1/2)`` on the signal side and then
    ``(2 rho_M)^(-1/2)`` on the meter side, renormalizing after each, until
    both reductions are within ``tol`` of 1/2.  A final canonical rotation
    (skipped when T is already diagonal) brings the state to Bell-diagonal
    form with a Bell factor at least as large as the input's.
    """
    rho = np.array(state.matrix)
    f_signal = np.array(ID2)
    f_meter = np.array(ID2)
    deviations: list[float] = []
    iterations = 0
    if _deviation_from_maximally_mixed(rho) > tol:
        for iterations in range(1, max_iter + 1):
            rho_s, _ = _reduced_states(rho)
            a = _inverse_sqrt_of_doubled(rho_s, "signal")
            big = np.kron(a, ID2)
            rho = big @ rho @ big.conj().T
            rho /= rho.trace().real
            f_signal = a @ f_signal

            _, rho_m = _reduced_states(rho)
            b = _inverse_sqrt_of_doubled(rho_m, "meter")
            big = np.kron(ID2, b)
            rho = big @ rho @ big.conj().T
            rho /= rho.trace().real
            f_meter = b @ f_meter

            deviation = _deviation_from_maximally_mixed(rho)
            deviations.append(deviation)
            if deviation <= tol:
                break
        else:
            raise NoConvergence(max_iter, deviations[-1])

    filtered = validate_state(rho)
    if _is_diagonal(decompose(filtered).T):
        state_out = filtered
    else:
        cf = canonical_form(filtered)
        state_out = cf.state_bar
        f_signal = cf.u_signal.conj().T @ f_signal
        f_meter = cf.u_meter.conj().T @ f_meter

    f_signal = f_signal / np.linalg.svd(f_signal, compute_uv=False)[0]
    f_meter = f_meter / np.linalg.svd(f_meter, compute_uv=False)[0]
    big = np.kron(f_signal, f_meter)
    success = float((big @ state.matrix @ big.conj().T).trace().real)
    return FilterResult(
        state_out=state_out,
        f_signal=f_signal,
        f_meter=f_meter,
        success_probability=success,
        iterations=iterations,
        b_max_in=bell_max(state),
        b_max_out=bell_max(state_out),
        deviation_log=tuple(deviations),
    )


def saturate_after_filter(state: TwoQubitState) -> tuple[FilterResult, BoundCheck]:
    """Filter to Bell-diagonal form, then optimize the excess sum on the result.

    Bell-diagonal states have maximally disordered local states (``n = 0``),
    so the optimized sum saturates the bound.  The filter stops with ``|n|``
    of the order of its tolerance, which leaves the sum about 1e-10 below the
    bound (at most 4e-10 over 100 random full-rank states).  That is within
    ``knowledge.CERTIFY_TOL`` (1e-9), so ``optimize_excess_sum`` returns the
    seed frame without a search, certified optimal to that accuracy.
    """
    result = filter_normal_form(state)
    optimum = optimize_excess_sum(result.state_out)
    return result, optimum.check
