"""The contract of bellbound's value types.

Every value type is immutable, holds its arrays read-only, builds from
keywords with its defaults, survives a pickle round trip and, where it holds
arrays, is not a sequence that numpy would unpack.  The types that check
their input reject it with the messages pinned here.
"""

import math
import pickle
import re

import numpy as np
import pytest

import bellbound as bb
from bellbound.io import RunManifest
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
            "reruns", "draw_s", "screen_s", "screen_residual",
        )
        defaults = {"reruns": 0, "draw_s": 0.0, "screen_s": 0.0, "screen_residual": 0.0}
        return FuzzSummary, fields_of(fuzz_bounds(10, 1), names), defaults
    if name == "RunManifest":
        kwargs = {
            "command": "sweep", "parameters": {"p": 0.82}, "seed": 1, "outputs": ["x.csv"],
            "replay_argv": ["sweep", "--p", "0.82"], "duration_s": 0.5, "version": "9.9",
            "stats": {"load_s": 0.1},
        }
        return RunManifest, kwargs, {"duration_s": 0.0, "version": bb.__version__, "stats": {}}
    raise KeyError(name)


VALUE_TYPES = [
    "TwoQubitState", "BlochForm", "QubitMeasurement", "ConditionalDecomposition",
    "KnowledgeReport", "BoundCheck", "ExcessOptimum", "CanonicalForm", "FilterResult",
    "CountRecord", "ExperimentConfig", "MixingModel", "SweepPoint", "WernerPrediction",
    "FuzzInstance", "FuzzSummary", "RunManifest",
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


@pytest.mark.parametrize("name", [n for n in VALUE_TYPES if n != "RunManifest"])
def test_fields_cannot_be_set(name):
    cls, kwargs, _ = sample(name)
    value = cls(**kwargs)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.no_such_field = 1


def test_run_manifest_fields_cannot_be_set():
    _, kwargs, _ = sample("RunManifest")
    manifest = RunManifest(**kwargs)
    for field in kwargs:
        with pytest.raises(AttributeError):
            setattr(manifest, field, getattr(manifest, field))


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
    ],
)
def test_invalid_input_is_rejected_with_its_message(cls, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        getattr(bb, cls)(**kwargs)
