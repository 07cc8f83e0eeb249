"""The contract of bellbound's value types.

Every value type is immutable, holds its arrays read-only, builds from
keywords with its defaults, survives a pickle round trip and, where it holds
arrays, is not a sequence that numpy would unpack.  The types that check
their input, TwoQubitState among them, reject it with the messages pinned
here.  A type's ``__init__`` is the door for a caller's values; the library
builds its results by ``_Frozen._of`` from values it has checked once.
"""

import collections
import importlib
import sys
import math
import pickle
import re
import warnings
from decimal import Decimal

import numpy as np
import pytest

import bellbound as bb
from bellbound.core import _Frozen
from bellbound.factories import BELL_KETS
from bellbound.verify import FuzzInstance, FuzzSummary, fuzz_bounds, run_trial


def fields_of(value, names):
    return {name: getattr(value, name) for name in names}


def sample(name):
    """(type, keyword arguments naming every field, the defaults of the
    fields that may be left out)."""
    state = bb.random_state(3, 2)
    if name == "TwoQubitState":
        return bb.TwoQubitState, {"matrix": state.matrix}, {}
    if name == "BlochForm":
        form = bb.decompose(state)
        return bb.BlochForm, {"n": form.n, "m": form.m, "T": form.T}, {}
    if name == "QubitMeasurement":
        return bb.QubitMeasurement, {"axis": np.array([0.0, 0.6, 0.8]), "degenerate": True}, {
            "degenerate": False
        }
    if name == "ConditionalDecomposition":
        cd = bb.conditional_decompose(state, bb.measurement_from_polarization_angle(30.0))
        names = ("w", "w_perp", "rho_M", "rho_M_perp", "chi_M", "degenerate")
        return bb.ConditionalDecomposition, fields_of(cd, names), {"degenerate": False}
    if name == "KnowledgeReport":
        return bb.KnowledgeReport, {"K": 0.5, "P": 0.1, "deltaK": 0.4, "D": 0.6, "deltaD": 0.5}, {}
    if name == "BoundCheck":
        return bb.BoundCheck, {"sum_of_squares": 0.3, "bound": 0.5, "slack": 0.2, "b_max": 1.4}, {}
    if name == "ExcessOptimum":
        optimum = bb.optimize_excess_sum(bb.random_state(65, 3))
        names = (
            "pi_s", "pi_s_prime", "pi_m", "pi_m_prime", "check", "path", "evaluations", "gap_bound",
        )
        defaults = {"path": "certified", "evaluations": 0, "gap_bound": math.inf}
        return bb.ExcessOptimum, fields_of(optimum, names), defaults
    if name == "CanonicalForm":
        form = bb.canonical_form(state)
        names = ("state_bar", "o_signal", "o_meter", "u_signal", "u_meter", "diag")
        return bb.CanonicalForm, fields_of(form, names), {}
    if name == "FilterResult":
        result = bb.filter_normal_form(bb.random_state(1, 4))
        names = (
            "state_out", "f_signal", "f_meter", "success_probability", "iterations",
            "b_max_in", "b_max_out", "deviation_log",
        )
        return bb.FilterResult, fields_of(result, names), {"deviation_log": ()}
    if name == "CountRecord":
        return bb.CountRecord, {"c_pp": 1, "c_pm": 2, "c_mp": 3, "c_mm": 4}, {}
    if name == "ExperimentConfig":
        kwargs = {"pair_rate": 455.0, "duration": 22.0, "dark_coincidence_rate": 1.5, "seed": 3}
        return bb.ExperimentConfig, kwargs, {"dark_coincidence_rate": 0.0, "seed": 0}
    if name == "MixingModel":
        kwargs = {"visibility": 0.9, "w_singlet": 0.8, "w_hh": 0.125, "w_vv": 0.075}
        return bb.MixingModel, kwargs, {}
    if name == "SweepPoint":
        kwargs = {
            "theta_deg": 10.0, "basis": "hv", "counts": bb.CountRecord(1, 2, 3, 4),
            "k_hat": 0.5, "p_hat": 0.1, "dk_hat": 0.4, "dk_theory": 0.41,
        }
        return bb.SweepPoint, kwargs, {}
    if name == "WernerPrediction":
        kwargs = {"K": 0.5, "K_prime": 0.4, "P": 0.0, "P_prime": 0.0, "b_max": 2.3}
        return bb.WernerPrediction, kwargs, {}
    if name == "FuzzInstance":
        names = (
            "trial", "state", "s_axis", "s_prime_axis", "m_axis", "m_prime_axis", "check",
            "same_meter_check",
        )
        return FuzzInstance, fields_of(run_trial(1, 0), names), {}
    if name == "FuzzSummary":
        names = (
            "trials", "seed", "min_slack", "worst", "min_same_meter_slack", "worst_same_meter",
            "draw_s", "screen_s",
        )
        defaults = {"draw_s": 0.0, "screen_s": 0.0}
        return FuzzSummary, fields_of(fuzz_bounds(10, 1), names), defaults
    raise KeyError(name)


VALUE_TYPES = [
    "TwoQubitState", "BlochForm", "QubitMeasurement", "ConditionalDecomposition",
    "KnowledgeReport", "BoundCheck", "ExcessOptimum", "CanonicalForm", "FilterResult",
    "CountRecord", "ExperimentConfig", "MixingModel", "SweepPoint", "WernerPrediction",
    "FuzzInstance", "FuzzSummary",
]
# The types that hold arrays; numpy must see each as one object.
HOLD_ARRAYS = [
    "TwoQubitState", "BlochForm", "QubitMeasurement", "ConditionalDecomposition",
    "CanonicalForm", "FilterResult", "FuzzInstance",
]


def same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a is b or a == b


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_keyword_construction_and_defaults(name):
    cls, kwargs, defaults = sample(name)
    value = cls(**kwargs)
    for field, given in kwargs.items():
        assert same(getattr(value, field), given), field
    value = cls(**{k: v for k, v in kwargs.items() if k not in defaults})
    for field, default in defaults.items():
        assert getattr(value, field) == default, field


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_fields_cannot_be_set(name):
    cls, kwargs, _ = sample(name)
    value = cls(**kwargs)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.no_such_field = 1


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_array_fields_are_read_only(name):
    cls, kwargs, _ = sample(name)
    value = cls(**kwargs)
    arrays = [field for field in kwargs if isinstance(getattr(value, field), np.ndarray)]
    assert bool(arrays) == (name in HOLD_ARRAYS)
    for field in arrays:
        assert not getattr(value, field).flags.writeable, field


# The array fields that a type reads from its caller by core._array, which
# returns a new array: the type freezes that array and copies it no more.
CALLER_ARRAYS = {
    "TwoQubitState": ("matrix",), "BlochForm": ("n", "m", "T"), "QubitMeasurement": ("axis",),
    "ConditionalDecomposition": ("rho_M", "rho_M_perp", "chi_M"),
    "CanonicalForm": ("o_signal", "o_meter", "u_signal", "u_meter", "diag"),
    "FilterResult": ("f_signal", "f_meter"),
    "FuzzInstance": ("s_axis", "s_prime_axis", "m_axis", "m_prime_axis"),
}


@pytest.mark.parametrize("name", list(CALLER_ARRAYS))
def test_array_fields_share_no_memory_with_the_caller(name):
    cls, kwargs, _ = sample(name)
    given = {k: np.array(v) if isinstance(v, np.ndarray) else v for k, v in kwargs.items()}
    value = cls(**given)
    for field in CALLER_ARRAYS[name]:
        array, kept = getattr(value, field), getattr(value, field).copy()
        assert not np.shares_memory(array, given[field]), field
        given[field][...] = 0
        assert np.array_equal(array, kept), field
        assert not array.flags.writeable, field
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


@pytest.mark.parametrize("name", HOLD_ARRAYS)
def test_numpy_sees_one_object(name):
    cls, kwargs, _ = sample(name)
    converted = np.asarray(cls(**kwargs))
    assert converted.shape == ()
    assert converted.dtype == object


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_pickle_round_trip(name):
    cls, kwargs, _ = sample(name)
    restored = pickle.loads(pickle.dumps(cls(**kwargs)))
    assert type(restored) is cls
    for field, given in kwargs.items():
        got = getattr(restored, field)
        if isinstance(given, np.ndarray):
            assert np.array_equal(got, given), field
        elif isinstance(given, (int, float, str, tuple, list, dict)):
            assert got == given, field
        else:
            assert type(got) is type(given), field


def same_bits(a, b) -> bool:
    """Whether ``b`` holds the bits of ``a``: an array by dtype, shape and
    bytes (and read-only), a float by its hex, a value field by field."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        equal = (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        return equal and not b.flags.writeable
    if isinstance(a, (_Frozen, tuple)):
        fields = (a._values(), b._values()) if isinstance(a, _Frozen) else (a, b)
        return all(map(same_bits, *fields))
    return a.hex() == b.hex() if isinstance(a, float) else a == b


def test_pickle_keeps_every_bit_of_an_optimum():
    # An unpickled axis is not normalized again: at 60 of these 1,200 optima
    # the second normalization moved an axis's last bit.
    for seed in range(300):
        for rank in range(1, 5):
            optimum = bb.optimize_excess_sum(bb.random_state(seed, rank))
            assert same_bits(optimum, pickle.loads(pickle.dumps(optimum))), (seed, rank)


# The types whose values hold arrays, directly or in a field; none is hashable.
UNHASHABLE = [*HOLD_ARRAYS, "ExcessOptimum", "FuzzSummary"]


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_equality_goes_by_the_field_values(name):
    cls, kwargs, _ = sample(name)
    value = cls(**kwargs)
    # a pickle round trip copies every array and every nested value
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value
    assert not copy != value
    assert value != object()


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_only_values_without_arrays_are_hashable(name):
    cls, kwargs, _ = sample(name)
    value = cls(**kwargs)
    copy = pickle.loads(pickle.dumps(value))
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(copy) == hash(value)


def test_array_fields_compare_by_value():
    state = bb.random_state(3, 2)
    assert state == bb.random_state(3, 2)
    assert state != bb.random_state(4, 2)
    form = bb.decompose(state)
    assert form == bb.decompose(bb.random_state(3, 2))
    assert form != bb.BlochForm(form.n, form.m, -form.T)
    # equal arrays whose bytes differ: 0.0 and -0.0
    zeros = np.zeros(3)
    assert bb.BlochForm(zeros, zeros, np.eye(3)) == bb.BlochForm(-zeros, zeros, np.eye(3))


def test_count_record_has_value_equality():
    assert bb.CountRecord(1, 2, 3, 4) == bb.CountRecord(c_pp=1, c_pm=2, c_mp=3, c_mm=4)
    assert bb.CountRecord(1, 2, 3, 4) != bb.CountRecord(1, 2, 3, 5)
    assert hash(bb.CountRecord(1, 2, 3, 4)) == hash(bb.CountRecord(1.0, 2, 3, 4))
    assert bb.CountRecord(3.0, 0, 0, 0).c_pp == 3
    assert type(bb.CountRecord(3.0, 0, 0, 0).c_pp) is int


def test_qubit_measurement_equality_ignores_degenerate():
    axis = np.array([0.0, 0.6, 0.8])
    assert bb.QubitMeasurement(axis) == bb.QubitMeasurement(axis.copy(), degenerate=True)
    assert bb.QubitMeasurement(axis) != bb.QubitMeasurement(-axis)


@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        ("CountRecord", {"c_pp": -1, "c_pm": 0, "c_mp": 0, "c_mm": 0},
         "count c_pp must be a non-negative integer, got -1"),
        ("CountRecord", {"c_pp": 0, "c_pm": 0, "c_mp": 1.5, "c_mm": 0},
         "count c_mp must be a non-negative integer, got 1.5"),
        ("ExperimentConfig", {"pair_rate": -1.0, "duration": 1.0},
         "pair_rate must be a finite non-negative number, got -1.0"),
        ("ExperimentConfig", {"pair_rate": 1.0, "duration": math.nan},
         "duration must be a finite non-negative number, got nan"),
        ("ExperimentConfig", {"pair_rate": 1.0, "duration": 1.0, "dark_coincidence_rate": math.inf},
         "dark_coincidence_rate must be a finite non-negative number, got inf"),
        ("MixingModel", {"visibility": 1.5, "w_singlet": 1.0, "w_hh": 0.0, "w_vv": 0.0},
         "visibility must lie in [0, 1], got 1.5"),
        ("MixingModel", {"visibility": 1.0, "w_singlet": 1.1, "w_hh": -0.1, "w_vv": 0.0},
         "mixing weights must be non-negative, got (1.1, -0.1, 0.0)"),
        ("MixingModel", {"visibility": 1.0, "w_singlet": 0.5, "w_hh": 0.25, "w_vv": 0.125},
         "mixing weights must sum to 1, got 0.875"),
        ("QubitMeasurement", {"axis": [1.0, 1.0, 0.0]},
         "measurement axis must be a unit vector: | |a| - 1 | = 4.142e-01 (limit 1e-12)"),
        ("QubitMeasurement", {"axis": [math.nan, 0.0, 1.0]},
         "measurement axis must be a unit vector: | |a| - 1 | = nan (limit 1e-12)"),
        ("QubitMeasurement", {"axis": [1e200, 0.0, 0.0]},
         "measurement axis must be a unit vector: | |a| - 1 | = inf (limit 1e-12)"),
    ],
)
def test_invalid_input_is_rejected_with_its_message(cls, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(bb, cls)(**kwargs)


def _off_diagonal(value):
    matrix = np.eye(4, dtype=complex) / 4
    matrix[0, 1] = value
    return matrix


@pytest.mark.parametrize(
    "matrix, error, message",
    [
        (_off_diagonal(0.1), bb.NotHermitian,
         "matrix is not Hermitian: max |A - A^dag| = 1.000000e-01 (limit 1e-10)"),
        (np.eye(4) / 2, bb.TraceNotOne,
         "matrix trace is not one: |tr - 1| = 1.000000e+00 (limit 1e-10)"),
        (np.diag([0.5, 0.7, -0.1, -0.1]), bb.NotPositive,
         "matrix is not positive semidefinite: min eigenvalue = -1.000000e-01 (limit -1e-10)"),
        (_off_diagonal(math.nan), ValueError, "matrix contains non-finite entries"),
        (np.eye(3) / 3, ValueError, "expected a 4x4 matrix, got shape (3, 3)"),
    ],
    ids=["non-hermitian", "trace", "non-positive", "non-finite", "shape"],
)
def test_invalid_state_is_rejected_with_its_message(matrix, error, message):
    # a state validates itself, and validate_state is that same check
    for build in (bb.TwoQubitState, bb.validate_state):
        with pytest.raises(error, match=re.escape(message)):
            build(matrix)


@pytest.mark.parametrize(
    "module, constant, build, quoted",
    [
        ("core", "VALIDATION_TOL", lambda: bb.NotHermitian(1.0), "(limit {})"),
        ("core", "VALIDATION_TOL", lambda: bb.TraceNotOne(2.0), "(limit {})"),
        ("core", "VALIDATION_TOL", lambda: bb.NotPositive(-1.0), "(limit -{})"),
        ("core", "VALIDATION_TOL", lambda: bb.NotUnitary(1.0), "(limit {})"),
        ("core", "COMPLEMENTARITY_TOL", lambda: bb.NotComplementary(0.5), "(limit {})"),
        ("canonical", "REDUCTION_EIGENVALUE_FLOOR", lambda: bb.SingularReduction("signal", 0.0),
         "(floor {})"),
    ],
    ids=["hermitian", "trace", "positive", "unitary", "complementary", "reduction"],
)
def test_each_message_quotes_the_tolerance_its_check_reads(
    monkeypatch, module, constant, build, quoted
):
    module = importlib.import_module(f"bellbound.{module}")
    assert quoted.format(getattr(module, constant)) in str(build())
    # a changed tolerance changes the message with it
    monkeypatch.setattr(module, constant, 2.5e-7)
    assert quoted.format(2.5e-7) in str(build())


# Every function that takes a scalar from its caller, with the name its
# messages give it.  Each reads the scalar through core._real (or, for an
# angle, core._angle) once.
SCALAR_SITES = {
    "werner": (bb.werner, "werner parameter p"),
    "werner_prediction.p": (lambda v: bb.werner_prediction(v, 0.0, 0.0), "werner parameter p"),
    "werner_prediction.theta_deg": (lambda v: bb.werner_prediction(0.82, v, 0.0), "theta_deg"),
    "werner_prediction.theta_prime_deg": (
        lambda v: bb.werner_prediction(0.82, 0.0, v), "theta_prime_deg"
    ),
    "measurement_from_polarization_angle": (
        bb.measurement_from_polarization_angle, "analyzer angle"
    ),
    "run_sweep_experiment.angle": (
        lambda v: bb.run_sweep_experiment(0.82, [(v, "hv")], None), "analyzer angle"
    ),
    "werner_mixing_model": (bb.werner_mixing_model, "p"),
    "MixingModel.visibility": (lambda v: bb.MixingModel(v, 1.0, 0.0, 0.0), "visibility"),
    "MixingModel.w_singlet": (lambda v: bb.MixingModel(1.0, v, 0.5, 0.5), "w_singlet"),
    "MixingModel.w_hh": (lambda v: bb.MixingModel(1.0, 0.5, v, 0.5), "w_hh"),
    "MixingModel.w_vv": (lambda v: bb.MixingModel(1.0, 0.5, 0.5, v), "w_vv"),
    "mixing_model_from_schedule.visibility": (
        lambda v: bb.mixing_model_from_schedule(v, [20, 10, 8], [0.04, 0.01, 0.0125]),
        "visibility",
    ),
    "ExperimentConfig.pair_rate": (lambda v: bb.ExperimentConfig(v, 1.0), "pair_rate"),
    "ExperimentConfig.duration": (lambda v: bb.ExperimentConfig(1.0, v), "duration"),
    "ExperimentConfig.dark_coincidence_rate": (
        lambda v: bb.ExperimentConfig(1.0, 1.0, v), "dark_coincidence_rate"
    ),
    "filter_normal_form.tol": (
        lambda v: bb.filter_normal_form(bb.werner(0.5), tol=v), "filter tol"
    ),
}
ANGLE_SITES = [
    "werner_prediction.theta_deg", "werner_prediction.theta_prime_deg",
    "measurement_from_polarization_angle", "run_sweep_experiment.angle",
]
NOT_REAL = {"True": True, "np.True_": np.True_, "'0.5'": "0.5", "None": None}


def _scalar_cases():
    for site, (_, name) in SCALAR_SITES.items():
        for label, value in NOT_REAL.items():
            message = f"{name} must be a real number, got {value!r}"
            yield pytest.param(site, value, ValueError, message, id=f"{site}-{label}")
        yield pytest.param(
            site, 10**400, ValueError, f"integer too large for a float: {name}",
            id=f"{site}-10**400",
        )
    for site in ANGLE_SITES:
        name = SCALAR_SITES[site][1]
        for value in (math.nan, math.inf, -math.inf):
            message = f"{name} must be a finite angle, got {value}"
            yield pytest.param(site, value, ValueError, message, id=f"{site}-{value}")
    # a NaN elsewhere still fails the site's own range check
    for site, error, message in [
        ("werner", bb.OutOfRange, "werner parameter p = nan outside [-1/3, 1]"),
        ("werner_prediction.p", bb.OutOfRange, "werner parameter p = nan outside [-1/3, 1]"),
        ("werner_mixing_model", bb.OutOfRange, "mixing protocol requires 0 <= p <= 1, got nan"),
        ("MixingModel.visibility", ValueError, "visibility must lie in [0, 1], got nan"),
        ("MixingModel.w_hh", ValueError,
         "mixing weights must be non-negative, got (0.5, nan, 0.5)"),
        ("ExperimentConfig.pair_rate", ValueError,
         "pair_rate must be a finite non-negative number, got nan"),
        ("filter_normal_form.tol", ValueError, "filter tol must be a finite number > 0, got nan"),
    ]:
        yield pytest.param(site, math.nan, error, message, id=f"{site}-nan")


@pytest.mark.parametrize("site, value, error, message", list(_scalar_cases()))
def test_each_scalar_is_read_by_one_rule(site, value, error, message):
    call, _ = SCALAR_SITES[site]
    # never accepted, never a TypeError, never a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call(value)


@pytest.mark.parametrize(
    "value", [1, np.int64(1), np.float32(0.5), np.float64(0.5), 0.5], ids=repr
)
def test_python_and_numpy_ints_and_floats_are_real(value):
    assert bb.werner(value) == bb.werner(float(value))
    assert bb.measurement_from_polarization_angle(value) == (
        bb.measurement_from_polarization_angle(float(value))
    )
    assert bb.ExperimentConfig(value, value).pair_rate == float(value)
    assert type(bb.ExperimentConfig(value, value).duration) is float


def _unitary_site(slot):
    """apply_local_unitary with ``u`` as its signal (slot 0) or meter (1) unitary."""
    def call(u):
        unitaries = [np.eye(2), np.eye(2)]
        unitaries[slot] = u
        return bb.apply_local_unitary(bb.werner(0.5), *unitaries)

    return call


def _field_site(name, field):
    """The value type ``name`` built from its sample with ``field`` replaced."""
    def call(value):
        cls, kwargs, _ = sample(name)
        return cls(**{**kwargs, field: value})

    return call


# Every parameter that takes an array from its caller: (call, the name its
# messages give it, a valid value as nested lists, whether it takes complex
# entries, the error that a value of another shape raises).  Each reads the
# array through core._array once.
ARRAY_SITES = {
    "TwoQubitState.matrix": (
        bb.TwoQubitState, "matrix", (np.eye(4) / 4).tolist(), True, ValueError
    ),
    "BlochForm.n": (
        lambda v: bb.BlochForm(v, np.zeros(3), np.eye(3)), "Bloch vector n", [0.0, 0.0, 0.0],
        False, ValueError,
    ),
    "BlochForm.m": (
        lambda v: bb.BlochForm(np.zeros(3), v, np.eye(3)), "Bloch vector m", [0.0, 0.0, 0.0],
        False, ValueError,
    ),
    "BlochForm.T": (
        lambda v: bb.BlochForm(np.zeros(3), np.zeros(3), v), "correlation matrix T",
        np.eye(3).tolist(), False, ValueError,
    ),
    "QubitMeasurement.axis": (
        bb.QubitMeasurement, "measurement axis", [1.0, 0.0, 0.0], False, ValueError
    ),
    "apply_local_unitary.u_signal": (
        _unitary_site(0), "unitary u_signal", np.eye(2).tolist(), True, ValueError
    ),
    "apply_local_unitary.u_meter": (
        _unitary_site(1), "unitary u_meter", np.eye(2).tolist(), True, ValueError
    ),
    "rotation_of_unitary.u": (
        bb.rotation_of_unitary, "unitary U", np.eye(2).tolist(), True, ValueError
    ),
    "rotation_from_quaternion.q": (
        bb.rotation_from_quaternion, "quaternion", [1.0, 0.0, 0.0, 0.0], False, ValueError
    ),
    "unitary_from_rotation.o": (
        bb.unitary_from_rotation, "rotation matrix", np.eye(3).tolist(), False, bb.NotRotation
    ),
    "bell_diagonal.lambdas": (
        bb.bell_diagonal, "Bell weight vector", [0.25] * 4, False, bb.NotAProbabilityVector
    ),
    "mixing_model_from_schedule.durations": (
        lambda v: bb.mixing_model_from_schedule(0.75, v, [0.04, 0.01, 0.0125]),
        "schedule duration vector", [20.0, 10.0, 8.0], False, ValueError,
    ),
    "mixing_model_from_schedule.rates": (
        lambda v: bb.mixing_model_from_schedule(0.75, [20, 10, 8], v),
        "schedule rate vector", [0.04, 0.01, 0.0125], False, ValueError,
    ),
    "ConditionalDecomposition.rho_M": (
        _field_site("ConditionalDecomposition", "rho_M"), "rho_M", np.eye(2).tolist(), True,
        ValueError,
    ),
    "CanonicalForm.o_signal": (
        _field_site("CanonicalForm", "o_signal"), "o_signal", np.eye(3).tolist(), False,
        ValueError,
    ),
    "CanonicalForm.u_meter": (
        _field_site("CanonicalForm", "u_meter"), "u_meter", np.eye(2).tolist(), True, ValueError
    ),
    "FilterResult.f_signal": (
        _field_site("FilterResult", "f_signal"), "f_signal", np.eye(2).tolist(), True, ValueError
    ),
    "FuzzInstance.s_axis": (
        _field_site("FuzzInstance", "s_axis"), "s_axis", [1.0, 0.0, 0.0], False, ValueError
    ),
}


def _with_first_entry(valid, entry):
    """``valid`` (nested lists) with its first entry replaced by ``entry``."""
    if not isinstance(valid[0], list):
        return [entry, *valid[1:]]
    return [_with_first_entry(valid[0], entry), *valid[1:]]


def _each_entry(valid, convert):
    """``valid`` (nested lists) with ``convert`` applied to each entry."""
    if not isinstance(valid, list):
        return convert(valid)
    return [_each_entry(v, convert) for v in valid]


def _array_cases():
    """(site, value, whether its shape is wrong) for each malformed value of each site."""
    for site, (_, _, valid, complex_site, _) in ARRAY_SITES.items():
        shape = np.shape(valid)
        # rows of unequal lengths; in one dimension, a list among the numbers
        ragged = [valid[0][:-1], *valid[1:]] if len(shape) > 1 else [valid[:2], *valid[1:]]
        cases = {
            "list-with-True": (_with_first_entry(valid, True), False),
            "np.bool_-array": (np.ones(shape, dtype=bool), False),
            "numeric-strings": (_each_entry(valid, str), False),
            "None": (None, True),
            "list-with-None": (_with_first_entry(valid, None), False),
            "Decimals": (_each_entry(valid, lambda x: Decimal(str(x))), False),
            "ragged": (ragged, len(shape) > 1),
            "one-entry-too-few": (valid[:-1], True),
            "extra-nesting": ([valid], True),
            "0-d-scalar": (0.5, True),
        }
        if not complex_site:
            cases["complex-array"] = (np.array(valid) + 0j, False)
        for label, (value, wrong_shape) in cases.items():
            yield pytest.param(site, value, wrong_shape, id=f"{site}-{label}")


@pytest.mark.parametrize("site, value, wrong_shape", list(_array_cases()))
def test_each_array_is_read_by_one_rule(site, value, wrong_shape):
    call, name, _, _, shape_error = ARRAY_SITES[site]
    # never accepted, never a TypeError, never a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises((ValueError, bb.BellboundError)) as caught:
            call(value)
    assert type(caught.value) is (shape_error if wrong_shape else ValueError)
    assert name in str(caught.value)


# An integer-valued input of each site, which every dtype below holds exactly.
INTEGRAL_INPUTS = {
    "TwoQubitState.matrix": np.diag([1, 0, 0, 0]).tolist(),
    "BlochForm.n": [0, 0, 1],
    "BlochForm.m": [0, 1, 0],
    "BlochForm.T": np.diag([1, -1, 1]).tolist(),
    "QubitMeasurement.axis": [0, 0, 1],
    "apply_local_unitary.u_signal": [[0, 1], [1, 0]],
    "apply_local_unitary.u_meter": [[0, 1], [1, 0]],
    "rotation_of_unitary.u": [[0, 1], [1, 0]],
    "rotation_from_quaternion.q": [1, 1, 0, 0],
    "unitary_from_rotation.o": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    "bell_diagonal.lambdas": [0, 1, 0, 0],
    "mixing_model_from_schedule.durations": [20, 10, 8],
    "mixing_model_from_schedule.rates": [4, 1, 1],
    "ConditionalDecomposition.rho_M": [[1, 0], [0, 0]],
    "CanonicalForm.o_signal": [[0, -1, 0], [1, 0, 0], [0, 0, 1]],
    "CanonicalForm.u_meter": [[0, 1], [1, 0]],
    "FilterResult.f_signal": [[0, 1], [1, 0]],
    "FuzzInstance.s_axis": [0, 0, 1],
}


@pytest.mark.parametrize("site", list(ARRAY_SITES))
def test_int_lists_tuples_and_numeric_arrays_build_equal_values(site):
    call = ARRAY_SITES[site][0]
    ints = INTEGRAL_INPUTS[site]
    tuples = tuple(tuple(row) for row in ints) if isinstance(ints[0], list) else tuple(ints)
    expected = call(ints)
    for value in (tuples, *(np.array(ints, dtype=t) for t in (np.float32, np.int64, np.float64))):
        assert same(call(value), expected), value


# The rules that decide whether a value is valid.
RULES = ("_array", "_real", "_integer", "_unit_axes", "_validate_stack")


@pytest.fixture
def rule_runs(monkeypatch):
    """How often each rule runs, by name: each rule is counted in every
    bellbound module that looks it up."""
    for name in ("canonical", "expsim", "io", "verify", "_local", "_mixing", "_readers"):
        importlib.import_module(f"bellbound.{name}")
    runs = collections.Counter()

    def counted(rule, name):
        def run(*args, **kwargs):
            runs[name] += 1
            return rule(*args, **kwargs)

        return run

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("bellbound."):
            for name in RULES:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(getattr(module, name), name))
    return runs


def _half_bell_half_hh():
    """1/2 |Phi+><Phi+| + 1/2 |HH><HH|, which the filter brings to its normal form in one round."""
    phi = BELL_KETS[0]
    return bb.validate_state(0.5 * np.outer(phi, phi.conj()) + 0.5 * np.diag([1.0, 0, 0, 0]))


def test_the_library_checks_each_value_once(rule_runs):
    # certified, flat and searched optima
    for state in (bb.werner(0.82), bb.random_state(0, 1), bb.random_state(65, 3)):
        rule_runs.clear()
        bb.optimize_excess_sum(state)
        # the signal frame and the meter axes, each a stack of two
        assert set(rule_runs) <= {"_unit_axes"} and rule_runs["_unit_axes"] <= 2, rule_runs
    # the output is validated once, whether or not it needs the final rotation
    for state in (_half_bell_half_hh(), bb.random_state(7, 3), bb.werner(0.82)):
        rule_runs.clear()
        bb.filter_normal_form(state)
        assert rule_runs == collections.Counter(_real=1, _validate_stack=1)
    # a rotated state is validated once, and a diagonal one is not rotated
    for state, runs in ((bb.random_state(7, 3), 1), (bb.werner(0.82), 0)):
        rule_runs.clear()
        bb.canonical_form(state)
        assert rule_runs == collections.Counter(_validate_stack=runs)


def rebuilt(value):
    """``value`` built again through its type's ``__init__``, with each of its
    fields rebuilt the same way."""
    if isinstance(value, _Frozen):
        return type(value)(*map(rebuilt, value._values()))
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return type(value)(*map(rebuilt, value))
    return value


def test_each_result_passes_its_types_caller_rule():
    # A rebuild may re-normalize an axis to other bits, so it need not be equal.
    filtered = [bb.random_state(seed, 1 + seed % 4) for seed in range(40)]
    filtered += [bb.werner(0.82), bb.bell_diagonal([0.1, 0.2, 0.3, 0.4]), _half_bell_half_hh()]
    filtered += [bb.validate_state(np.eye(4) / 4)]
    # |HH><HH|, whose pure reductions no filter can take, has degenerate meters
    product = bb.validate_state(np.diag([1.0, 0, 0, 0]))
    pi = bb.measurement_from_polarization_angle(30.0)
    values = [run_trial(3, trial) for trial in range(20)]
    values += [bb.filter_normal_form(state) for state in filtered]
    for state in [*filtered, product]:
        values += [bb.optimize_excess_sum(state), bb.canonical_form(state)]
        values += [bb.conditional_decompose(state, pi), bb.conditional_decompose(state, pi.flipped())]
    for value in values:
        assert type(rebuilt(value)) is type(value)
