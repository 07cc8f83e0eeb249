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

A value type has two doors.  ``_Frozen.__init__`` reads a caller's values by the
rules of the type's ``_rules`` (:func:`_array`, :func:`_real`, :func:`_integer`,
:func:`_unit_axes`, :func:`_validate_stack`), the only code that decides validity;
``_Frozen._of`` builds a result from values the library has checked and frozen.

Local unitaries, their rotations and the conditional decomposition over a
signal measurement live in ``_local``, which only their callers compile.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import NotHermitian, NotPositive, TraceNotOne

# Validation tolerances (double precision leaves >= 4 orders of margin on 4x4 problems).
VALIDATION_TOL = 1e-10
UNIT_AXIS_TOL = 1e-12
COMPLEMENTARITY_TOL = 1e-9

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


def _arrays(shape: tuple, dtype=float, label: str | None = None, check=None):
    """The rule of an array field: :func:`_array` of ``shape`` and ``dtype``, named ``label``
    or else the field, then ``check`` of it as a 1-stack if given, then :func:`_frozen`."""
    def rule(value, name: str) -> np.ndarray:
        a = _array(value, label or name, shape, dtype)
        return _frozen(a) if check is None else _frozen(check(a[np.newaxis]))[0]

    return rule


# Sets a field of a _Frozen value, once, in __init__ or _of.
_set = object.__setattr__


class _Frozen:
    """Base of the immutable value types, which are cheaper to define than
    frozen dataclasses.  A subclass names its fields in ``__slots__``, their
    rules in ``_rules`` and the values of those that may be left out in
    ``_defaults``.  ``__init__`` takes the fields by position or keyword and
    sets each once, read by ``rule(value, name)`` or, with no rule, as given.
    Any later assignment raises AttributeError.  Equality, ``repr``, pickling
    and ``_asdict`` go by the fields, with array fields compared by
    ``np.array_equal``.  So does hashing, and an array field is unhashable:
    equal arrays may differ in their bytes (``0.0`` and ``-0.0``).  ``_of``
    sets fields that the library has checked, each array frozen, in slot
    order, and checks none."""

    __slots__ = ()
    _rules: dict = {}
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        fields = {**self._defaults, **dict(zip(names, args)), **kwargs}
        # a field too many, given twice, unknown or missing
        doubled = kwargs.keys() & names[: len(args)]
        if len(args) > len(names) or doubled or fields.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)} once"
                            f" each, got {len(args)} by position and {list(kwargs)} by keyword")
        for name in names:
            rule = self._rules.get(name)
            _set(self, name, fields[name] if rule is None else rule(fields[name], name))

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
        return _unpickled, (type(self), self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


def _unpickled(cls, fields: tuple) -> _Frozen:
    """The value of ``cls`` that pickled ``fields``, rebuilt by ``_of`` from frozen copies of its
    arrays, so that it keeps every bit: ``__init__`` would check and normalize them again.
    Unpickle only trusted bytes; they are not checked."""
    return cls._of(*(_frozen(np.array(f)) if isinstance(f, np.ndarray) else f for f in fields))


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


class TwoQubitState(_Frozen):
    """A complex 4x4 density matrix (read by :func:`_array`), validated when it is built.

    The input is symmetrized to ``(A + A^dag)/2`` before the trace and
    positivity checks, but only if its asymmetry is already below 1e-10;
    otherwise :class:`NotHermitian` is raised.  Check order is shape,
    finiteness, Hermiticity, trace, positivity.  :func:`validate_state` is
    this same check.
    """

    __slots__ = ("matrix",)
    _rules = {"matrix": _arrays((4, 4), complex, check=_validate_stack)}


class BlochForm(_Frozen):
    """Local Bloch vectors and the 3x3 correlation matrix of a two-qubit state.

    ``T[k, l]`` pairs signal axis ``k`` with meter axis ``l``; all three are real.
    """

    __slots__ = ("n", "m", "T")
    _rules = {
        "n": _arrays((3,), label="Bloch vector n"),
        "m": _arrays((3,), label="Bloch vector m"),
        "T": _arrays((3, 3), label="correlation matrix T"),
    }

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
    _rules = {"axis": _arrays((3,), label="measurement axis", check=_unit_axes)}
    _defaults = {"degenerate": False}

    def __eq__(self, other):
        if type(other) is not QubitMeasurement:
            return NotImplemented
        return bool(np.array_equal(self.axis, other.axis))

    def flipped(self) -> "QubitMeasurement":
        """Same measurement with the outcome labels swapped."""
        return QubitMeasurement._of(_frozen(-self.axis), self.degenerate)


def validate_state(matrix) -> TwoQubitState:
    """Validate a 4x4 matrix as a density matrix: ``TwoQubitState(matrix)``."""
    return TwoQubitState(matrix)


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


def recompose(form: BlochForm) -> TwoQubitState:
    """Rebuild the density matrix ``1/4 sum_ij R_ij sigma_i x sigma_j`` from a
    Bloch form's ``R`` over the table ``_PAULI_PAIRS``; raises NotPositive for
    Bloch data with no physical state."""
    return validate_state(_density(form.R))


def _density(corr: np.ndarray) -> np.ndarray:
    """The unvalidated matrix ``1/4 sum_ij R_ij sigma_i x sigma_j`` of a 4x4 ``R``."""
    return 0.25 * np.einsum("ij,ijab->ab", corr, _PAULI_PAIRS)


def _rotation_stack(q: np.ndarray) -> np.ndarray:
    """The rotation matrices (N, 3, 3) of a stack of quaternions (w, x, y, z)
    (N, 4), each row normalized first; no norm is checked."""
    w, x, y, z = _normalized(q).T
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ], axis=1).reshape(-1, 3, 3)


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
