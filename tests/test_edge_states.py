"""The edge states of ``conftest.filter_edge_states`` through every public
function that reads a state, its Bloch form or its counts: each call returns
or raises a ``BellboundError``, and no numpy ``RuntimeWarning`` (an overflow,
a division by zero, an invalid value) goes by."""

import inspect
import warnings

import numpy as np
import pytest

import bellbound as bb
from bellbound.canonical import REDUCTION_EIGENVALUE_FLOOR
from conftest import filter_edge_states

EDGE_STATES = filter_edge_states(REDUCTION_EIGENVALUE_FLOOR)
MODULES = tuple(
    f"bellbound.{name}" for name in ("core", "_local", "knowledge", "canonical", "expsim")
)
# Parameters by which a function reads a state, its Bloch form or its counts.
STATE_PARAMETERS = ("matrix", "records")
STATE_TYPES = ("TwoQubitState", "BlochForm", "CountRecord")

X, Y, Z = (bb.QubitMeasurement(axis) for axis in np.eye(3))
OBLIQUE = bb.QubitMeasurement(np.array([1.0, 2.0, 2.0]) / 3.0)
HADAMARD = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
PHASE = np.diag([1, 1j])
CONFIG = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, dark_coincidence_rate=0.5, seed=3)


def state_readers():
    """The public functions of MODULES that take a state, a Bloch form or
    counts, by name."""
    names = set()
    for name in bb.__all__:
        function = getattr(bb, name)
        if not inspect.isfunction(function) or function.__module__ not in MODULES:
            continue
        for parameter in inspect.signature(function).parameters.values():
            annotation = str(parameter.annotation)
            if parameter.name in STATE_PARAMETERS or any(t in annotation for t in STATE_TYPES):
                names.add(name)
    return names


def calls(matrix, results):
    """``(name, call)`` for every state reader.  A call reads its inputs
    from ``results``, which must hold by then what the calls before it
    returned, by name."""

    def state():
        return results["validate_state"]

    def counts():
        return results["simulate_counts"]

    def records():
        return results["simulate_bell_records"]

    yield "validate_state", lambda: bb.validate_state(matrix)
    yield "decompose", lambda: bb.decompose(state())
    yield "recompose", lambda: bb.recompose(results["decompose"])
    yield "apply_local_unitary", lambda: bb.apply_local_unitary(state(), HADAMARD, PHASE)
    for name in (
        "conditional_decompose", "apriori", "distinguishability", "distinguishability_excess",
        "optimal_meter",
    ):
        yield name, lambda name=name: [getattr(bb, name)(state(), pi) for pi in (Z, X, OBLIQUE)]
    for name in (
        "knowledge", "knowledge_excess", "knowledge_report", "coincidence_probs", "exact_counts",
    ):
        yield name, lambda name=name: [
            getattr(bb, name)(state(), meter, signal) for meter in (Z, OBLIQUE) for signal in (Z, X)
        ]
    yield "bell_max", lambda: bb.bell_max(state())
    yield "check_bound", lambda: [
        bb.check_bound(state(), Z, X, Z, X),
        bb.check_bound(state(), X, Y, OBLIQUE, Z),
        bb.check_bound(state(), Z, X, bb.optimal_meter(state(), Z), bb.optimal_meter(state(), X)),
    ]
    yield "check_same_meter_bound", lambda: [
        bb.check_same_meter_bound(state(), Z, X, Z),
        bb.check_same_meter_bound(state(), X, Y, OBLIQUE),
    ]
    yield "optimize_excess_sum", lambda: bb.optimize_excess_sum(state())
    yield "canonical_form", lambda: bb.canonical_form(state())
    yield "filter_normal_form", lambda: bb.filter_normal_form(state())
    yield "saturate_after_filter", lambda: bb.saturate_after_filter(state())
    yield "simulate_counts", lambda: bb.simulate_counts(state(), OBLIQUE, X, CONFIG, stream=7)
    yield "simulate_bell_records", lambda: bb.simulate_bell_records(state(), CONFIG)
    for name in ("estimate_knowledge", "estimate_apriori", "estimate_correlation"):
        yield name, lambda name=name: getattr(bb, name)(counts())
    for name in ("estimate_bell_max", "bell_estimate_stderr"):
        yield name, lambda name=name: getattr(bb, name)(records())


def test_the_calls_cover_every_state_reader():
    names = [name for name, _ in calls(np.eye(4) / 4, {})]
    assert len(names) == len(set(names))
    assert set(names) == state_readers()


@pytest.mark.parametrize(
    "matrix", [case[1] for case in EDGE_STATES], ids=[case[0] for case in EDGE_STATES]
)
def test_every_state_reader_returns_or_raises_a_library_error(matrix):
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, call in calls(matrix, results):
            try:
                results[name] = call()
            except bb.BellboundError as exc:
                results[name] = exc
    # the inputs of the later calls are all returned
    for name in ("validate_state", "decompose", "simulate_counts", "simulate_bell_records"):
        assert not isinstance(results[name], bb.BellboundError), (name, results[name])
