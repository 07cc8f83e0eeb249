"""Two-qubit density matrices, Bloch decompositions, and projective qubit measurements.

Conventions, fixed once and asserted in the tests:

* Tensor-product basis order is ``|HH>, |HV>, |VH>, |VV>`` with the signal
  qubit first.
* ``|H>`` maps to the Bloch +z axis and ``|X> = (|H>+|V>)/sqrt(2)`` to +x.
  Linear polarizations therefore live in the x-z plane; the y axis is
  reserved for circular polarizations and unused here.
* A measurement is identified with a unit Bloch axis ``a``; the axes ``a``
  and ``-a`` denote the same measurement with swapped outcome labels, and
  every derived quantity is invariant under that swap.

All functions are pure and all returned arrays are read-only, so values can
be shared freely between threads.

A value type has two doors.  Its ``__init__`` takes a caller's values through
the rules (:func:`_array`, :func:`_real`, :func:`_integer`, :func:`_unit_axes`,
:func:`_validate_stack`), the only code that decides validity; ``_Frozen._of``
builds a result from values the library has checked and frozen, with no rule.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NotHermitian, NotPositive, NotRotation, NotUnitary, TraceNotOne

# Validation tolerances (double precision leaves >= 4 orders of margin on 4x4 problems).
VALIDATION_TOL = 1e-10
UNIT_AXIS_TOL = 1e-12
COMPLEMENTARITY_TOL = 1e-9
ROTATION_TOL = 1e-8
DEGENERATE_WEIGHT = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
ID2 = np.eye(2, dtype=complex)

# _PAULI_PAIRS[i, j] = sigma_i x sigma_j with sigma_0 = 1, signal slot first.
_SIGMA = np.stack([ID2, *PAULI])
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _SIGMA, _SIGMA).reshape(4, 4, 4, 4)


def _is_integer(value) -> bool:
    """True for a Python or numpy integer, but not for a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """``value`` as an int; a float or a bool raises a ValueError naming ``name``."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(value, name: str) -> float:
    """``value``, a ``numbers.Real`` other than a bool (int and float, tested first, skip the
    slow ABC check), as a float; else, or for an int too large for a float, ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"integer too large for a float: {name}") from None


def _complex(value, name: str) -> complex | float:
    """:func:`_real` at a complex site, where a non-real ``numbers.Complex`` passes too."""
    if not isinstance(value, (int, float, numbers.Real)) and isinstance(value, numbers.Complex):
        return complex(value)
    return _real(value, name)


def _array(value, name: str, shape: tuple, dtype=float, error=ValueError) -> np.ndarray:
    """``value`` as a new float64 array of ``shape``, complex128 if ``dtype`` is complex: an
    ndarray of ints or floats (or complex numbers, at a complex site), or a list, tuple or
    scalar whose entries each pass :func:`_real` (:func:`_complex` at a complex site).  Else a
    ValueError names ``name``; another shape, ragged nesting included, raises ``error``."""
    entries = value
    if not isinstance(value, np.ndarray):
        try:
            entries = np.array(value, dtype=object)
        except ValueError:  # nested arrays of unequal shapes
            raise error(f"{name} nests arrays of unequal shapes") from None
    elif value.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        raise ValueError(f"{name} cannot hold dtype {value.dtype}")
    if entries.shape != shape:
        dims = "x".join(map(str, shape)) if len(shape) > 1 else f"length-{shape[0]}"
        raise error(f"expected a {dims} {name}, got shape {entries.shape}")
    if entries is value:
        return np.array(value, dtype=dtype)
    read = _complex if dtype is complex else _real
    return np.array([read(x, f"{name} entry") for x in entries.flat], dtype=dtype).reshape(shape)


def _angle(value, name: str) -> float:
    """An angle in degrees by :func:`_real`; a NaN or infinite one raises a ValueError naming it."""
    theta = _real(value, name)
    if not math.isfinite(theta):
        raise ValueError(f"{name} must be a finite angle, got {theta}")
    return theta


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, a new array that no caller holds, set read-only in place."""
    a.setflags(write=False)
    return a


# Sets a field of a _Frozen value, once, in its __init__.
_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types, which are cheaper to define than
    frozen dataclasses.  A subclass names its fields in ``__slots__``; its
    ``__init__`` takes them in that order and sets each once with ``_set``.
    Any later assignment raises AttributeError.  Equality, ``repr``, pickling
    and ``_asdict`` go by the fields, with array fields compared by
    ``np.array_equal``.  Hashing goes by the fields too, but a subclass that
    holds arrays sets ``__hash__ = None``: equal arrays may differ in their
    bytes (``0.0`` and ``-0.0``), so hashing the bytes would break equality.
    ``__init__`` checks a caller's values; ``_of`` sets fields that the library
    has checked, each array frozen, in slot order, and checks none."""

    __slots__ = ()

    @classmethod
    def _of(cls, *fields):
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            _set(value, name, field)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        """The fields by name, in order."""
        return dict(zip(self.__slots__, self._values()))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)
            for a, b in zip(self._values(), other._values())
        )

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class TwoQubitState(_Frozen):
    """A complex 4x4 density matrix (read by :func:`_array`), validated when it is built.

    The input is symmetrized to ``(A + A^dag)/2`` before the trace and
    positivity checks, but only if its asymmetry is already below 1e-10;
    otherwise :class:`NotHermitian` is raised.  Check order is shape,
    finiteness, Hermiticity, trace, positivity.  :func:`validate_state` is
    this same check.
    """

    __slots__ = ("matrix",)
    __hash__ = None  # it holds arrays (see _Frozen)

    def __init__(self, matrix: np.ndarray):
        m = _array(matrix, "matrix", (4, 4), complex)
        _set(self, "matrix", _frozen(_validate_stack(m[np.newaxis]))[0])


class BlochForm(_Frozen):
    """Local Bloch vectors and the 3x3 correlation matrix of a two-qubit state.

    ``T[k, l]`` pairs signal axis ``k`` with meter axis ``l``; all three are real.
    """

    __slots__ = ("n", "m", "T")
    __hash__ = None  # it holds arrays (see _Frozen)

    def __init__(self, n: np.ndarray, m: np.ndarray, T: np.ndarray):
        _set(self, "n", _frozen(_array(n, "Bloch vector n", (3,))))
        _set(self, "m", _frozen(_array(m, "Bloch vector m", (3,))))
        _set(self, "T", _frozen(_array(T, "correlation matrix T", (3, 3))))

    @property
    def R(self) -> np.ndarray:
        """The 4x4 correlation matrix ``R = [[1, m^T], [n, T]]``, that is
        ``R_ij = tr[rho (sigma_i x sigma_j)]`` with ``sigma_0 = 1``."""
        return _frozen(np.block([[np.ones((1, 1)), self.m[None]], [self.n[:, None], self.T]]))


class QubitMeasurement(_Frozen):
    """Two-outcome projective measurement along a unit Bloch axis of 3 real entries.

    Outcome "+" is the projector ``(1 + a.sigma)/2`` and "-" its complement.
    ``degenerate`` marks an axis chosen arbitrarily because the discrimination
    problem it was derived from had no preferred direction; equality ignores it.
    """

    __slots__ = ("axis", "degenerate")

    def __init__(self, axis: np.ndarray, degenerate: bool = False):
        _set(self, "axis", _frozen(_unit_axes(_array(axis, "measurement axis", (3,))[np.newaxis]))[0])
        _set(self, "degenerate", degenerate)

    def __eq__(self, other):
        if type(other) is not QubitMeasurement:
            return NotImplemented
        return bool(np.array_equal(self.axis, other.axis))

    # The axis is an array, so a measurement is not hashable.
    __hash__ = None

    def flipped(self) -> "QubitMeasurement":
        """Same measurement with the outcome labels swapped."""
        return QubitMeasurement._of(_frozen(-self.axis), self.degenerate)


class ConditionalDecomposition(_Frozen):
    """Expansion of a state over the two outcomes of a signal measurement.

    ``w`` and ``w_perp`` are the outcome probabilities, ``rho_M`` and
    ``rho_M_perp`` the conditional meter states, and ``chi_M`` the coherence
    block between the two signal outcomes.  When a weight falls below 1e-12
    the corresponding conditional is undefined; it is stored as a zero matrix
    and ``degenerate`` is set.
    """

    __slots__ = ("w", "w_perp", "rho_M", "rho_M_perp", "chi_M", "degenerate")
    __hash__ = None  # it holds arrays (see _Frozen)

    def __init__(
        self, w: float, w_perp: float, rho_M: np.ndarray, rho_M_perp: np.ndarray,
        chi_M: np.ndarray, degenerate: bool = False,
    ):
        _set(self, "w", w)
        _set(self, "w_perp", w_perp)
        for name, block in zip(self.__slots__[2:5], (rho_M, rho_M_perp, chi_M)):
            _set(self, name, _frozen(_array(block, name, (2, 2), complex)))
        _set(self, "degenerate", degenerate)


def validate_state(matrix) -> TwoQubitState:
    """Validate a 4x4 matrix as a density matrix: ``TwoQubitState(matrix)``."""
    return TwoQubitState(matrix)


def _validate_stack(m: np.ndarray) -> np.ndarray:
    """The checks of :class:`TwoQubitState` on a stack of shape (N, 4, 4).

    Returns the symmetrized stack, or raises the error that
    :class:`TwoQubitState` raises for the first invalid matrix.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    # Entries near the float limit overflow to inf (and a trace to NaN) here.
    # Each check below is written so that a NaN fails it, so the overflow
    # needs no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        adjoint = m.conj().swapaxes(1, 2)
        asym = np.max(np.abs(m - adjoint), axis=(1, 2))
        m = (m + adjoint) / 2.0
        trace = np.trace(m, axis1=1, axis2=2).real
        try:
            min_eigenvalue = np.linalg.eigvalsh(m)[:, 0]
        except np.linalg.LinAlgError:
            # A matrix with an entry that overflowed lies far outside the
            # unit disc, where no entry of a state can be: not positive.
            overflowed = ~np.isfinite(m).all(axis=(1, 2))
            min_eigenvalue = np.linalg.eigvalsh(np.where(overflowed[:, None, None], 0, m))[:, 0]
            min_eigenvalue[overflowed] = -np.inf
    hermitian = asym < VALIDATION_TOL
    unit_trace = np.abs(trace - 1.0) < VALIDATION_TOL
    bad = ~(hermitian & unit_trace & (min_eigenvalue >= -VALIDATION_TOL))
    if bad.any():
        i = int(np.argmax(bad))
        if not hermitian[i]:
            raise NotHermitian(float(asym[i]))
        if not unit_trace[i]:
            raise TraceNotOne(float(trace[i]))
        raise NotPositive(float(min_eigenvalue[i]))
    return m


def decompose(state: TwoQubitState) -> BlochForm:
    """Bloch expansion read off ``R_ij = tr[rho (sigma_i x sigma_j)]``
    (``sigma_0 = 1``, the table ``_PAULI_PAIRS``): n_k = R_k0, m_l = R_0l,
    T_kl = R_kl."""
    return BlochForm._of(*(_frozen(x)[0] for x in _bloch_split(state.matrix[np.newaxis])))


def _correlation_stack(rho: np.ndarray) -> np.ndarray:
    """``R_ij = tr[rho (sigma_i x sigma_j)]`` of a stack of validated states
    (N, 4, 4), shape (N, 4, 4); ``R_00`` is ``tr rho``.  A Hermitian ``rho``
    leaves only floating noise in the imaginary parts, which are dropped."""
    coefficients = np.einsum("aij,Nji->Na", _PAULI_PAIRS.reshape(16, 4, 4), rho)
    return coefficients.real.reshape(-1, 4, 4)


def _bloch_split(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Bloch stacks ``n`` (N, 3), ``m`` (N, 3) and ``T`` (N, 3, 3) of a stack
    of validated states, read off :func:`_correlation_stack`, each a new
    C-contiguous array: the one split of R, so a row is computed as in a 1-stack."""
    corr = _correlation_stack(rho)
    return corr[:, 1:, 0].copy(), corr[:, 0, 1:].copy(), corr[:, 1:, 1:].copy()


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for each row of two (N, k) stacks, bit for bit: numpy
    computes a (1, k) @ (k, 1) matmul with the BLAS dot of 1-D ``a @ b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _normalized(v: np.ndarray) -> np.ndarray:
    """``row / np.linalg.norm(row)`` for each row of ``v``, bit for bit."""
    return v / np.sqrt(_row_dot(v, v))[:, None]


def _unit_axes(a: np.ndarray) -> np.ndarray:
    """The axis stack ``a`` (N, 3) with each row divided by its norm, as
    ``_normalized`` does, once every row is checked: the first row with
    ``| |a| - 1 |`` above UNIT_AXIS_TOL raises ValueError.  This is the one
    rule for a measurement axis; :class:`QubitMeasurement` is its 1-stack."""
    # An overflow leaves an inf norm, and a NaN fails the test.
    with np.errstate(over="ignore"):
        norm = np.sqrt(_row_dot(a, a))
    deviation = np.abs(norm - 1.0)
    bad = ~(deviation <= UNIT_AXIS_TOL)
    if bad.any():
        raise ValueError(f"measurement axis must be a unit vector: | |a| - 1 | ="
                         f" {deviation[np.argmax(bad)]:.3e} (limit {UNIT_AXIS_TOL})")
    return a / norm[:, None]


def recompose(form: BlochForm) -> TwoQubitState:
    """Rebuild the density matrix ``1/4 sum_ij R_ij sigma_i x sigma_j`` from a
    Bloch form's ``R`` over the table ``_PAULI_PAIRS``; raises NotPositive for
    Bloch data with no physical state."""
    return validate_state(_density(form.R))


def _density(corr: np.ndarray) -> np.ndarray:
    """The unvalidated matrix ``1/4 sum_ij R_ij sigma_i x sigma_j`` of a 4x4 ``R``."""
    return 0.25 * np.einsum("ij,ijab->ab", corr, _PAULI_PAIRS)


def _check_unitary(u, name: str = "U") -> np.ndarray:
    u = _array(u, f"unitary {name}", (2, 2), complex)
    deviation = float(np.max(np.abs(u.conj().T @ u - ID2)))
    if deviation >= VALIDATION_TOL:
        raise NotUnitary(deviation)
    return u


def apply_local_unitary(state: TwoQubitState, u_signal, u_meter) -> TwoQubitState:
    """Conjugate the state by ``u_signal (x) u_meter``, each a complex 2x2 unitary.

    The correlation matrix transforms as ``T -> O_S T O_M^T`` with ``O`` the
    rotation of each unitary under the adjoint map.
    """
    u_s = _check_unitary(u_signal, "u_signal")
    u_m = _check_unitary(u_meter, "u_meter")
    big = np.kron(u_s, u_m)
    return validate_state(big @ state.matrix @ big.conj().T)


def rotation_of_unitary(u) -> np.ndarray:
    """The unique rotation O with ``U (v.sigma) U^dag = (O v).sigma`` for all v (U 2x2)."""
    u = _check_unitary(u)
    conjugated = np.einsum("ab,lbc,dc->lad", u, PAULI, u.conj())
    o = 0.5 * np.einsum("kab,lba->kl", PAULI, conjugated).real
    return _frozen(o)


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


def _rotation_stack(q: np.ndarray) -> np.ndarray:
    """The rotation matrices (N, 3, 3) of a stack of quaternions (w, x, y, z)
    (N, 4), each row normalized first; no norm is checked."""
    w, x, y, z = _normalized(q).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=1).reshape(-1, 3, 3)


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


def measurement_from_polarization_angle(theta_deg: float) -> QubitMeasurement:
    """Linear-polarization analyzer at ``theta_deg``, a finite int or float.

    The "+" outcome projects on ``cos(theta)|H> + sin(theta)|V>`` (theta from
    horizontal); on the Bloch sphere the axis is ``(sin 2theta, 0, cos 2theta)``.
    """
    return QubitMeasurement(_analyzer_directions([theta_deg])[0])


def _analyzer_directions(thetas_deg) -> np.ndarray:
    """The Bloch directions ``(sin 2theta, 0, cos 2theta)`` of analyzers at
    ``thetas_deg``, shape (N, 3), for :func:`_unit_axes` to check and normalize;
    :func:`measurement_from_polarization_angle` is its 1-stack."""
    doubled = [2 * math.radians(_angle(theta, "analyzer angle") % 180.0) for theta in thetas_deg]
    return np.array([(math.sin(x), 0.0, math.cos(x)) for x in doubled]).reshape(-1, 3)


def are_complementary(a: QubitMeasurement, b: QubitMeasurement) -> bool:
    """True iff the Bloch axes are orthogonal, i.e. all projector overlaps are 1/2."""
    return bool(_complementary_stack(a.axis[np.newaxis], b.axis[np.newaxis])[1][0])


def _complementary_stack(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dot ``a.b`` of each row of two axis stacks (N, 3), and whether
    ``|a.b|`` is at most COMPLEMENTARITY_TOL; a NaN dot is not."""
    dot = _row_dot(a, b)
    return dot, np.abs(dot) <= COMPLEMENTARITY_TOL


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
