"""The contract of bellbound's value types.

Every value type is immutable, holds its arrays read-only, builds from
keywords with its defaults, survives a pickle round trip and, where it holds
arrays, is not a sequence that numpy would unpack.  The types that check
their input, TwoQubitState among them, reject it with the messages pinned
here.
"""

import importlib
import math
import pickle
import re
import warnings

import numpy as np
import pytest

import bellbound as bb
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
        names = ("pi_s", "pi_s_prime", "pi_m", "pi_m_prime", "check", "path", "evaluations")
        return bb.ExcessOptimum, fields_of(optimum, names), {"path": "certified", "evaluations": 0}
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
