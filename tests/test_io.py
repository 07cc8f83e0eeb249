"""Tests for file formats and JSON/CSV rendering."""

import json
import re
import time

import numpy as np
import pytest

import bellbound as bb
from bellbound.cli import _csv_chunks, main
from bellbound.io import (
    StageClock,
    bloch_to_json,
    complex_matrix_from_json,
    complex_matrix_to_json,
    dumps_json,
    format_float,
    load_state,
    read_json,
    write_json,
)


class TestFloatRendering:
    def test_17g_round_trips_doubles_exactly(self, rng):
        for x in rng.normal(size=200) * 10.0 ** rng.integers(-12, 12, size=200):
            assert float(format_float(x)) == x

    def test_json_rendering_is_reparsable(self):
        doc = {"a": 1.0 / 3.0, "b": [1, 2.5e-17, "text", None, True], "c": {"d": []}}
        parsed = json.loads(dumps_json(doc))
        assert parsed["a"] == 1.0 / 3.0
        assert parsed["b"][1] == 2.5e-17

    def test_numpy_scalars_and_arrays(self):
        doc = {"v": np.array([1.5, 2.5]), "i": np.int64(3), "x": np.float64(0.1)}
        parsed = json.loads(dumps_json(doc))
        assert parsed == {"v": [1.5, 2.5], "i": 3, "x": 0.1}

    def test_json_text_is_pinned_byte_for_byte(self):
        class Record(dict):
            pass

        doc = Record(
            flags=[True, False, None],
            count=7,
            np_count=np.int64(-3),
            floats=[-0.0, 1e-300, 0.1, np.float64(2.5)],
            text='a "quote", a \\ and a\nnewline\té',
            matrix=np.array([[1.0, -0.5], [0.25, 3.0]]),
            pair=(1, 2.0),
            check=bb.BoundCheck(0.5, 2.0, 1.5, 2.8284271247461903),
            empty={"object": {}, "array": [], "deeper": [[], [{}], {"inner": []}]},
        )
        assert dumps_json(doc) == PINNED_JSON

    @pytest.mark.parametrize("value", [np.bool_(True), object()], ids=["np.bool_", "object"])
    def test_values_without_a_json_form_raise_type_error(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_json({"nested": [value]})


PINNED_JSON = r"""{
  "flags": [
    true,
    false,
    null
  ],
  "count": 7,
  "np_count": -3,
  "floats": [
    -0,
    1e-300,
    0.10000000000000001,
    2.5
  ],
  "text": "a \"quote\", a \\ and a\nnewline\t\u00e9",
  "matrix": [
    [
      1,
      -0.5
    ],
    [
      0.25,
      3
    ]
  ],
  "pair": [
    1,
    2
  ],
  "check": [
    0.5,
    2,
    1.5,
    2.8284271247461903
  ],
  "empty": {
    "object": {},
    "array": [],
    "deeper": [
      [],
      [
        {}
      ],
      {
        "inner": []
      }
    ]
  }
}
"""


class TestStateFiles:
    def test_matrix_round_trip(self, tmp_path):
        state = bb.random_state(3, 4)
        path = tmp_path / "state.json"
        write_json(path, {"matrix": complex_matrix_to_json(state.matrix)})
        loaded = load_state(path)
        assert np.array_equal(loaded.matrix, state.matrix)

    def test_factory_werner(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"factory": "werner", "p": 0.82}')
        assert np.max(np.abs(load_state(path).matrix - bb.werner(0.82).matrix)) == 0.0

    def test_factory_bell_diagonal(self, tmp_path):
        path = tmp_path / "bd.json"
        path.write_text('{"factory": "bell_diagonal", "lambdas": [0.1, 0.2, 0.3, 0.4]}')
        expected = bb.bell_diagonal([0.1, 0.2, 0.3, 0.4])
        assert np.max(np.abs(load_state(path).matrix - expected.matrix)) == 0.0

    def test_factory_random(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text('{"factory": "random", "seed": 5, "ancilla_dim": 2}')
        assert np.array_equal(load_state(path).matrix, bb.random_state(5, 2).matrix)

    def test_plain_numbers_are_accepted_as_real_cells(self, tmp_path):
        path = tmp_path / "plain.json"
        write_json(path, {"matrix": (np.eye(4) / 4).real.tolist()})
        np.testing.assert_allclose(load_state(path).matrix, np.eye(4) / 4)

    def test_unknown_factory_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"factory": "ghz"}')
        with pytest.raises(ValueError, match="unknown state factory"):
            load_state(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "none.json"
        path.write_text('{"stuff": 1}')
        with pytest.raises(ValueError, match="matrix.*factory|factory.*matrix"):
            load_state(path)

    def test_matrix_and_factory_together_rejected(self, tmp_path, capsys):
        # the matrix was used and the factory silently ignored
        path = tmp_path / "both.json"
        write_json(path, {"matrix": (np.eye(4) / 4).real.tolist(), "factory": "werner", "p": 0.5})
        with pytest.raises(ValueError, match="either 'matrix' or 'factory', not both"):
            load_state(path)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error:") and "'matrix'" in captured.err
        assert "'factory'" in captured.err

    @pytest.mark.parametrize(
        "document, key",
        [
            ('{"factory": "werner", "p": 1%s}', "p"),
            ('{"matrix": [[1%s, 0, 0, 0], [0,0,0,0], [0,0,0,0], [0,0,0,0]]}', "matrix"),
            ('{"factory": "bell_diagonal", "lambdas": [1%s, 0, 0, 0]}', "lambdas"),
            ('{"matrix": [[{"im": 1%s}, 0, 0, 0], [0,0,0,0], [0,0,0,0], [0,0,0,0]]}', "matrix"),
        ],
    )
    def test_integer_too_large_for_a_float_names_its_key(self, tmp_path, document, key):
        # float() of such an integer raised OverflowError, which escaped as a traceback
        path = tmp_path / "huge.json"
        path.write_text(document % ("0" * 400))
        with pytest.raises(ValueError, match=f"key '{key}' is malformed: integer too large"):
            load_state(path)

    @pytest.mark.parametrize(
        "document, unknown",
        [
            # the misspelling once gave the default ancilla_dim, a rank-4 state
            ({"factory": "random", "seed": 7, "ancila_dim": 2}, ["ancila_dim"]),
            ({"factory": "werner", "p": 0.5, "lambdas": [0.25] * 4}, ["lambdas"]),
            ({"factory": "bell_diagonal", "lambdas": [0.25] * 4, "p": 1, "seed": 2}, ["p", "seed"]),
            ({"matrix": (np.eye(4) / 4).tolist(), "p": 0.5}, ["p"]),
        ],
        ids=["random", "werner", "bell_diagonal", "matrix"],
    )
    def test_keys_the_form_does_not_read_are_rejected(self, tmp_path, capsys, document, unknown):
        path = tmp_path / "state.json"
        write_json(path, document)
        with pytest.raises(ValueError, match=re.escape(f"state file has unknown keys {unknown}")):
            load_state(path)
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: state file has unknown keys")
        assert all(repr(key) in captured.err for key in unknown)

    @pytest.mark.parametrize(
        "document, key, name",
        [
            ('{"factory": "werner", "p": %s}', "p", "werner parameter p"),
            ('{"factory": "random", "seed": %s}', "seed", "seed"),
            ('{"factory": "random", "seed": 1, "ancilla_dim": %s}', "ancilla_dim", "ancilla_dim"),
            ('{"factory": "bell_diagonal", "lambdas": [%s, 0, 0, 0]}', "lambdas", "list entry"),
            ('{"matrix": [[%s, 0, 0, 0], [0,0,0,0], [0,0,0,0], [0,0,0,0]]}', "matrix",
             "matrix cell re"),
            ('{"matrix": [[{"im": %s}, 0, 0, 0], [0,0,0,0], [0,0,0,0], [0,0,0,0]]}', "matrix",
             "matrix cell im"),
        ],
        ids=["p", "seed", "ancilla_dim", "lambdas", "cell", "cell-im"],
    )
    @pytest.mark.parametrize("value", ["true", '"0.5"', "null"])
    def test_each_number_passes_the_library_rule(self, tmp_path, document, key, name, value):
        # one rule, core._real or core._integer, in the library and in the file
        path = tmp_path / "state.json"
        path.write_text(document % value)
        with pytest.raises(ValueError, match=f"^state file key '{key}' is malformed: ") as caught:
            load_state(path)
        assert name in str(caught.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[" * 200_000, "state file nests too deeply to decode"),
            ("[1, 2]", "state file must contain a JSON object"),
            ('"matrix"', "state file must contain a JSON object"),
        ],
        ids=["deep", "list", "string"],
    )
    def test_file_must_hold_one_json_object(self, tmp_path, text, message):
        # 200,000 nested arrays once escaped the decoder as a RecursionError
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_state(path)
        with pytest.raises(ValueError, match=re.escape(message.replace("state", "replay"))):
            read_json(path, "replay file")

    def test_bad_cell_rejected(self, tmp_path):
        path = tmp_path / "cell.json"
        path.write_text('{"matrix": [[{"real": 1}, 0, 0, 0], [0,0,0,0], [0,0,0,0], [0,0,0,0]]}')
        with pytest.raises(ValueError):
            load_state(path)

    def test_complex_matrix_round_trip_is_exact(self):
        m = bb.random_state(9, 4).matrix
        assert np.array_equal(complex_matrix_from_json(complex_matrix_to_json(m)), m)


class TestBlochExport:
    def test_schema(self):
        doc = bloch_to_json(bb.decompose(bb.werner(0.82)))
        assert set(doc) == {"n", "m", "T"}
        assert len(doc["n"]) == 3 and len(doc["T"]) == 3 and len(doc["T"][0]) == 3


class TestCsv:
    def test_lf_endings_and_header(self):
        text = "".join(_csv_chunks(["a", "b"], [(1.5, 2), (0.1, 3)]))
        assert "\r" not in text
        assert text.startswith("a,b\n")
        assert text.splitlines()[1].startswith("1.5,")


def test_stage_clock_times_each_stage_from_the_previous_mark():
    clock = StageClock()
    clock.mark("load")
    time.sleep(0.01)
    clock.mark("compute")
    clock.mark("render")
    assert list(clock.stages) == ["load_s", "compute_s", "render_s"]
    assert clock.stages["compute_s"] >= 0.01
    assert min(clock.stages.values()) >= 0.0
