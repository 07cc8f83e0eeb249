"""Diagonal-correlation-tensor canonical form and the local-filtering normal form,
computed on the real matrix ``R_ij = tr rho sigma_i x sigma_j`` (``sigma_0 = 1``)."""

from __future__ import annotations

import math

import numpy as np

from ._local import _rotated, _unitary
from .core import (
    TwoQubitState,
    _arrays,
    _correlation_stack,
    _density,
    _Frozen,
    _frozen,
    _real,
    _validate_stack,
)
from .errors import NoConvergence, NotPositive, SingularReduction
from .knowledge import BoundCheck, _bell_max_stack, optimize_excess_sum

DIAGONAL_TOL = 1e-10
REDUCTION_EIGENVALUE_FLOOR = 1e-8
DEFAULT_FILTER_TOL = 1e-10
# A polish round must lower the deviation, so the rounds end long before this cap.
MAX_POLISH_ROUNDS = 10_000
# The eigenvalues of eta R eta R^T within CLUSTER_TOL of the largest, relative to
# it, plus CLUSTER_ABS_TOL (|R_ij| <= 1 keeps the matrix of order 1), are one
# cluster.  A degenerate eigenvalue differs from it by rounding, 1.7e-13 at most
# on random_state seeds 0-299 x ranks 1-4; a distinct one by 1.1e-3 at least; a
# defective pair by about 1e-8.  The cluster spans an eigenspace if the matrix
# leaves residuals on it of at most EIGENSPACE_FACTOR times that tolerance.
CLUSTER_TOL = 1e-6
CLUSTER_ABS_TOL = 1e-12
EIGENSPACE_FACTOR = 100.0
# The Minkowski metric diag(1, -1, -1, -1), as a column to scale rows by.
_ETA = np.array([[1.0], [-1.0], [-1.0], [-1.0]])


class CanonicalForm(_Frozen):
    """A state rotated so its correlation matrix is diagonal.

    ``diag`` entries are signed and ordered by descending square;
    ``apply_local_unitary(state_bar, u_signal, u_meter)`` reproduces the
    original state.
    """

    __slots__ = ("state_bar", "o_signal", "o_meter", "u_signal", "u_meter", "diag")
    _rules = {
        **dict.fromkeys(("o_signal", "o_meter"), _arrays((3, 3))),
        **dict.fromkeys(("u_signal", "u_meter"), _arrays((2, 2), complex)),
        "diag": _arrays((3,)),
    }


class FilterResult(_Frozen):
    """Outcome of driving a state to Bell-diagonal form by local filtering.

    Both filters are rescaled to largest singular value 1, so each is a valid
    stochastic local operation; ``success_probability`` is the probability
    that both filters pass.  ``iterations`` counts the polish rounds that ran
    after the closed form (0 on most states), and ``deviation_log`` records,
    per polish round, the worst deviation of a reduced state from 1/2.
    """

    __slots__ = (
        "state_out", "f_signal", "f_meter", "success_probability", "iterations", "b_max_in",
        "b_max_out", "deviation_log",
    )
    _rules = dict.fromkeys(("f_signal", "f_meter"), _arrays((2, 2), complex))
    _defaults = {"deviation_log": ()}


def _is_diagonal(t: np.ndarray) -> bool:
    return float(np.max(np.abs(t - np.diag(np.diag(t))))) < DIAGONAL_TOL


def _proper_rotation_factors(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD ``T = O_S diag(d) O_M^T`` with both factors proper rotations.

    Reflection parity is absorbed into the sign of the smallest diagonal
    entry, so ``|d|`` stays in descending order.
    """
    o_s, d, vt = np.linalg.svd(t)
    o_m = vt.T.copy()
    if np.linalg.det(o_s) < 0.0:
        o_s[:, 2] *= -1.0
        d[2] = -d[2]
    if np.linalg.det(o_m) < 0.0:
        o_m[:, 2] *= -1.0
        d[2] = -d[2]
    return o_s, d, o_m


def canonical_form(state: TwoQubitState) -> CanonicalForm:
    """Rotate a state so its correlation matrix becomes diagonal.

    Real SVD of T with both factors forced to proper rotations (signs
    absorbed into the diagonal, which may therefore have negative entries).
    A state whose T is already diagonal with squares in descending order is
    returned unchanged with identity rotations; under degenerate singular
    values any valid factorization branch may be returned.
    """
    corr = _correlation_stack(state.matrix[np.newaxis])[0]
    t = corr[1:, 1:]
    diag_entries = np.diag(t).copy()
    squares = diag_entries**2
    if _is_diagonal(t) and squares[0] >= squares[1] >= squares[2]:
        eye3, eye2 = np.eye(3), np.eye(2, dtype=complex)
        return CanonicalForm._of(state, *map(_frozen, (eye3, eye3, eye2, eye2, diag_entries)))
    o_s, d, o_m = _proper_rotation_factors(t)
    rho = _density(_rotated(corr, o_s.T, o_m.T))
    state_bar = TwoQubitState._of(_frozen(_validate_stack(rho[np.newaxis])[0]))
    arrays = o_s, o_m, _unitary(o_s), _unitary(o_m), d
    return CanonicalForm._of(state_bar, *map(_frozen, arrays))


def _check_floor(r: float, side: str) -> None:
    """SingularReduction when ``(1 - r)/2``, the smaller eigenvalue of a reduced
    state whose Bloch vector has length r, is below the floor."""
    if (1.0 - r) / 2.0 < REDUCTION_EIGENVALUE_FLOOR:
        raise SingularReduction(side, (1.0 - r) / 2.0)


def _boost(corr: np.ndarray, v: list, f: tuple, side: str) -> tuple[np.ndarray, tuple]:
    """The filter ``A = (1 + v.sigma)^(-1/2)`` on the side of ``corr`` that its
    rows index (``corr`` is R for the signal, R^T for the meter): the new
    ``corr``, scaled to ``corr_00 = 1``, and ``A f``, 2 x 2 matrices being
    row-major 4-tuples (numpy's call overhead exceeds their arithmetic).  A
    acts on R as a Lorentz boost of velocity ``-v``, applied in its eigenbasis
    to keep exact the small differences a nearly pure reduction leaves: with
    ``e = v/|v|``, the parts ``corr_0j +- e.corr_1:j`` of each column scale by
    ``1 -+ |v|``, the parts across e (Householder columns of the one of +-e
    with e_z >= 0) by ``sqrt(1 - |v|^2)``.  When v is that side's Bloch vector
    ``corr[1:, 0]``, A takes its reduced state to 1/2.  Raises SingularReduction
    when ``(1 - |v|)/2``, the smaller eigenvalue of ``(1 + v.sigma)/2``, is
    below the floor."""
    x, y, z = v
    r = math.hypot(x, y, z)
    _check_floor(r, side)
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


def _signal_boost(corr: np.ndarray) -> list:
    """The velocity v of the signal's boost in the Lorentz singular value
    decomposition ``R = L_S diag(s) L_M^T``: ``L_S e_0 = gamma (1, v)``.

    The columns of ``eta L_S`` are eigenvectors of ``M = eta R eta R^T`` with
    eigenvalues ``s_i^2``, and its timelike one, ``gamma (1, -v)``, has the
    largest, ``s_0^2``.  When that eigenvalue is degenerate (rank-2 states pair
    the spectrum, a pure state has ``M = s^2 1``), the decomposition is not
    unique: any timelike vector of the cluster's eigenspace serves, and this
    takes the Minkowski projection of ``e_0`` on it, the smallest signal boost.
    A cluster on which M is not a multiple of 1 is defective (``1/2 |psi><psi|
    + 1/2 |HH><HH|`` with psi a Bell state): its normal form needs a boost of
    infinite speed, and SingularReduction reports the limit 0.
    """
    m = (_ETA * corr) @ (_ETA * corr.T)
    lam, vec = np.linalg.eig(m)
    i = int(np.argmax(lam.real))
    top = lam[i]
    tol = CLUSTER_TOL * abs(top) + CLUSTER_ABS_TOL
    near = np.abs(lam - top) <= tol
    if np.count_nonzero(near) == 1 and top.imag == 0.0:
        w = vec[:, i].real
    else:
        q, sv, _ = np.linalg.svd(np.hstack([vec[:, near].real, vec[:, near].imag]), False)
        basis = q[:, sv > CLUSTER_ABS_TOL * sv[0]]
        if float(np.max(np.abs(m @ basis - top.real * basis))) > EIGENSPACE_FACTOR * tol:
            raise SingularReduction("signal", 0.0)
        try:
            w = basis @ np.linalg.solve(basis.T @ (_ETA * basis), basis[0])
        except np.linalg.LinAlgError:  # a null eigenspace: no timelike vector
            raise SingularReduction("signal", 0.0) from None
    if not abs(w[0]) > math.hypot(*w[1:].tolist()):
        raise SingularReduction("signal", 0.0)
    return (-w[1:] / w[0]).tolist()


def _closed_form(corr: np.ndarray, f_signal: tuple, f_meter: tuple) -> tuple:
    """Both boosts of the Lorentz singular value decomposition of R applied to
    R (Verstraete, Dehaene & De Moor, PRA 64, 010101(R), 2001): the signal's
    from the spectrum (:func:`_signal_boost`); the boosted R is ``O_S diag(s)
    L_M^T``, so the meter's boost is the one that takes its reduced state,
    read off the first row, to 1/2.  Returns the new R and the filters times
    ``f_signal`` and ``f_meter``, all 2 x 2 matrices being row-major 4-tuples."""
    corr, f_signal = _boost(corr, _signal_boost(corr), f_signal, "signal")
    corr, f_meter = _boost(corr.T, corr[0, 1:].tolist(), f_meter, "meter")
    return corr.T, f_signal, f_meter


def _deviation(corr: np.ndarray) -> float:
    """Largest entry of ``|rho_S - 1/2|`` and ``|rho_M - 1/2|``, read off
    ``R``: half of ``max(|v_z|, hypot(v_x, v_y))`` for each local Bloch vector."""
    return max(max(abs(z), math.hypot(x, y)) / 2.0
               for x, y, z in (corr[1:, 0].tolist(), corr[0, 1:].tolist()))


def _normalized_filter(f: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The row-major 4-tuple ``f`` as a 2 x 2 matrix F divided by its largest
    singular value, and the Pauli coefficients x of ``F^dag F = x.sigma``
    (``sigma_0 = 1``)."""
    f0, f1, f2, f3 = f
    a = abs(f0) ** 2 + abs(f2) ** 2
    c = abs(f1) ** 2 + abs(f3) ** 2
    b = f0.conjugate() * f1 + f2.conjugate() * f3
    # the larger eigenvalue of F^dag F = [[a, b], [b*, c]]
    top = (a + c) / 2.0 + math.hypot((a - c) / 2.0, abs(b))
    x = np.array([(a + c) / 2.0, b.real, -b.imag, (a - c) / 2.0]) / top
    return np.array(f, dtype=complex).reshape(2, 2) / math.sqrt(top), x


def _filter(state: TwoQubitState, tol: float) -> tuple[FilterResult, float | None]:
    """:func:`filter_normal_form`, and the deviation that the closed form left
    (None when the input was within ``tol`` and it did not run)."""
    tol = _real(tol, "filter tol")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"filter tol must be a finite number > 0, got {tol}")
    # R with R_00 = 1, as BlochForm.R sets it, and C-contiguous as that is.
    corr = np.ascontiguousarray(_correlation_stack(state.matrix[np.newaxis])[0])
    corr[0, 0] = 1.0
    corr_in = corr
    f_signal = f_meter = (1.0, 0.0, 0.0, 1.0)
    deviations: list[float] = []
    closed = None
    if _deviation(corr) > tol:
        # A reduced state below the floor stays so under any filter.
        _check_floor(math.hypot(*corr[1:, 0].tolist()), "signal")
        _check_floor(math.hypot(*corr[0, 1:].tolist()), "meter")
        corr, f_signal, f_meter = _closed_form(corr, f_signal, f_meter)
        deviation = closed = _deviation(corr)
        # Each polish round is the closed form again, on R as the last left it.
        while deviation > tol:
            if len(deviations) == MAX_POLISH_ROUNDS:
                raise NoConvergence(MAX_POLISH_ROUNDS, deviation)
            corr, f_signal, f_meter = _closed_form(corr, f_signal, f_meter)
            previous, deviation = deviation, _deviation(corr)
            deviations.append(deviation)
            if deviation >= previous:
                # a round that gains nothing: rounding the boosts amplify
                raise NoConvergence(len(deviations), deviation)

    # Each filter rescaled to largest singular value 1, and the probability
    # tr[(F_S x F_M) rho (F_S x F_M)^dag] = x^T R y that both pass, where
    # F^dag F = x.sigma (y.sigma for the meter), read off the input's R.
    (f_signal, x), (f_meter, y) = map(_normalized_filter, (f_signal, f_meter))
    success = float(x @ corr_in @ y)
    t_out = corr[1:, 1:]
    if not _is_diagonal(t_out):
        # The canonical rotation, on R's blocks: T -> O_S^T T O_M = diag(d).
        o_s, _, o_m = _proper_rotation_factors(t_out)
        corr = _rotated(corr, o_s.T, o_m.T)
        f_signal = _unitary(o_s).conj().T @ f_signal
        f_meter = _unitary(o_m).conj().T @ f_meter
    # Validated only at exit: mirrored entries sum the same exact Pauli products in the same
    # order, so the matrix is Hermitian to the bit; the boosts' rounding can leave it not positive.
    try:
        state_out = TwoQubitState._of(_frozen(_validate_stack(_density(corr)[np.newaxis])[0]))
    except NotPositive as exc:
        raise SingularReduction("filtered", exc.min_eigenvalue, "state") from None
    b_max_in, b_max_out = _bell_max_stack(np.stack([corr_in[1:, 1:], t_out])).tolist()
    result = FilterResult._of(
        state_out, _frozen(f_signal), _frozen(f_meter), success, len(deviations), b_max_in,
        b_max_out, tuple(deviations),
    )
    return result, closed


def filter_normal_form(state: TwoQubitState, tol: float = DEFAULT_FILTER_TOL) -> FilterResult:
    """Drive a state to Bell-diagonal form by local filters, in closed form.

    A local filter acts on ``R = [[1, m^T], [n, T]]`` as a Lorentz boost, and
    the filters that make both reduced states 1/2 are the boosts of the
    Lorentz singular value decomposition of R (Verstraete, Dehaene & De Moor,
    PRA 64, 010101(R), 2001; see ``_closed_form``), read off the spectrum of
    ``eta R eta R^T`` in one pass.  Where that leaves a reduced state more than
    ``tol`` from 1/2 (a state near the floor, whose rounding the boosts
    amplify), polish rounds run the closed form again on its own output until
    it is within ``tol``; the first round that does not lower the deviation
    raises NoConvergence (as would, in principle, round ``MAX_POLISH_ROUNDS``).
    An input within ``tol`` is returned unfiltered.  A final canonical
    rotation of R's blocks (``_local._rotated``, skipped when T is already
    diagonal) brings the state to Bell-diagonal form with a Bell factor at
    least as large as the input's.  A reduced state, or one that a filter
    would have to reach, with smaller eigenvalue below
    ``REDUCTION_EIGENVALUE_FLOOR`` raises SingularReduction, as do a defective
    spectrum, whose normal form is reached only in a limit, and a filtered
    state that the boosts' rounding leaves not positive.  ``tol`` must be a
    finite int or float > 0 (ValueError).
    """
    return _filter(state, tol)[0]


def saturate_after_filter(state: TwoQubitState) -> tuple[FilterResult, BoundCheck]:
    """Filter to Bell-diagonal form, then optimize the excess sum on the result.

    Bell-diagonal states have maximally disordered local states (``n = 0``),
    so the optimized sum saturates the bound.  The closed form leaves ``|n|``
    at rounding level (at most 2.1e-15 on ``random_state(seed, 4)``, seeds
    0-99, whose sums end at most 2.9e-15 from the bound); a polished state may
    end anywhere within the filter's tolerance, about 1e-10 below the bound.
    Both are within ``_optimum.CERTIFY_TOL`` (1e-9), so ``optimize_excess_sum``
    returns the seed frame without a search, certified optimal to that accuracy.
    """
    result = filter_normal_form(state)
    optimum = optimize_excess_sum(result.state_out)
    return result, optimum.check
