"""The one constructor of the value types, ``core._Frozen.__init__``.

It binds a type's fields by position or keyword in slot order, fills a left-out
field from the type's ``_defaults`` and reads each field by its rule in
``_rules``.  A field given twice, an unknown keyword, a missing field or one
positional too many raises TypeError naming the type, before any rule
reads a value.
"""

import importlib

import numpy as np
import pytest

import bellbound as bb
from bellbound.core import _Frozen
from bellbound.verify import run_trial


def value(name):
    """A value of the type ``name``, as the library or a caller builds it."""
    state = bb.random_state(3, 2)
    if name == "TwoQubitState":
        return state
    if name == "BlochForm":
        return bb.decompose(state)
    if name == "QubitMeasurement":
        return bb.QubitMeasurement([0.0, 0.6, 0.8], degenerate=True)
    if name == "ConditionalDecomposition":
        return bb.conditional_decompose(state, bb.measurement_from_polarization_angle(30.0))
    if name == "CanonicalForm":
        return bb.canonical_form(state)
    if name == "FilterResult":
        return bb.filter_normal_form(bb.random_state(1, 4))
    if name == "FuzzInstance":
        return run_trial(1, 0)
    if name == "CountRecord":
        return bb.CountRecord(1, 2, 3, 4)
    if name == "ExperimentConfig":
        return bb.ExperimentConfig(455.0, 22.0, 1.5, 3)
    if name == "MixingModel":
        return bb.MixingModel(0.9, 0.8, 0.125, 0.075)
    raise KeyError(name)


FROZEN_TYPES = [
    "TwoQubitState", "BlochForm", "QubitMeasurement", "ConditionalDecomposition",
    "CanonicalForm", "FilterResult", "FuzzInstance", "CountRecord", "ExperimentConfig",
    "MixingModel",
]


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_every_value_type_is_tested():
    for module in ("canonical", "expsim", "verify", "_local", "_mixing"):
        importlib.import_module(f"bellbound.{module}")
    assert sorted(cls.__name__ for cls in subclasses(_Frozen)) == sorted(FROZEN_TYPES)


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_every_array_field_is_read_by_the_array_rule(name):
    # core._arrays builds the rule of an array field, which reads it by
    # core._array; tests/test_source.py pins that rule tables call _arrays
    given = value(name)
    arrays = {field for field, v in given._asdict().items() if isinstance(v, np.ndarray)}
    rules = {
        field for field, rule in type(given)._rules.items()
        if rule.__qualname__ == "_arrays.<locals>.rule"
    }
    assert rules == arrays


def fields(name):
    given = value(name)
    return type(given), given._asdict()


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_positional_and_keyword_fields_mix_in_slot_order(name):
    cls, kwargs = fields(name)
    expected = cls(**kwargs)
    values = list(kwargs.values())
    for split in range(len(values) + 1):
        rest = dict(list(kwargs.items())[split:])
        built = cls(*values[:split], **rest)
        assert type(built) is cls
        assert built == expected, split


def raises_naming(name):
    return pytest.raises(TypeError, match=rf"^{name}\(\) takes the fields ")


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_an_unknown_keyword_is_a_type_error(name):
    cls, kwargs = fields(name)
    with raises_naming(name):
        cls(**kwargs, no_such_field=1)


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_a_field_given_twice_is_a_type_error(name):
    cls, kwargs = fields(name)
    first = next(iter(kwargs.values()))
    with raises_naming(name):
        cls(first, **kwargs)


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_a_missing_field_is_a_type_error_before_any_value_is_read(name):
    cls, kwargs = fields(name)
    required = [field for field in kwargs if field not in cls._defaults]
    for missing in required:
        given = {field: v for field, v in kwargs.items() if field != missing}
        with raises_naming(name):
            cls(**given)
    # a value that its rule would reject does not hide the missing field
    given = {field: "not a value" for field in required[:-1]}
    with raises_naming(name):
        cls(**given)


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_one_positional_too_many_is_a_type_error(name):
    cls, kwargs = fields(name)
    values = list(kwargs.values())
    with raises_naming(name):
        cls(*values, values[-1])


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_each_left_out_field_takes_its_default(name):
    cls, kwargs = fields(name)
    given = {field: v for field, v in kwargs.items() if field not in cls._defaults}
    built = cls(**given)
    for field, default in cls._defaults.items():
        assert getattr(built, field) == default, field


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_no_type_sets_its_own_hash(name):
    # Hashing the fields of a value that holds an array reaches the ndarray,
    # which raises; QubitMeasurement defines __eq__, so Python sets its
    # __hash__ to None.
    cls = type(value(name))
    assert ("__hash__" in vars(cls)) == (name == "QubitMeasurement")
    if name == "QubitMeasurement":
        assert cls.__hash__ is None
