"""File formats: JSON input files and state files, JSON/CSV exports.

All floats are rendered with 17 significant digits, which round-trips IEEE
doubles exactly; CSV files use LF line endings.  Both properties make every
seeded output byte-reproducible.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import BlochForm, TwoQubitState, validate_state
from .factories import bell_diagonal, random_state, werner

if TYPE_CHECKING:  # annotations only: io loads neither module
    from .canonical import FilterResult
    from .knowledge import BoundCheck


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _render_json(obj, indent: int, keys: dict) -> str:
    """``obj`` as pretty JSON at ``indent``; ``keys`` memoizes each rendered
    ``"key": `` prefix.  The exact builtin types are tested first, in the
    order of how often they occur; numpy scalars and arrays, subclasses,
    ``None`` and booleans take the ``isinstance`` chain after them."""
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g")
    if kind is dict:
        if not obj:
            return "{}"
        pad = "  " * indent
        items = []
        for k, v in obj.items():
            name = (str(k), indent)
            prefix = keys.get(name)
            if prefix is None:
                prefix = keys[name] = f"{pad}  {json.dumps(name[0])}: "
            items.append(prefix + _render_json(v, indent + 1, keys))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if kind is int:
        return str(obj)
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        pad = "  " * indent
        inner = pad + "  "
        items = ",\n".join([inner + _render_json(v, indent + 1, keys) for v in obj])
        return "[\n" + items + "\n" + pad + "]"
    if kind is str:
        return json.dumps(obj)
    if isinstance(obj, dict):
        return _render_json(dict(obj), indent, keys)
    if isinstance(obj, (list, tuple)):
        return _render_json(list(obj), indent, keys)
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), indent, keys)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj) -> str:
    """Deterministic pretty JSON with 17-significant-digit floats."""
    return _render_json(obj, 0, {}) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8", newline="\n")


def complex_matrix_to_json(matrix) -> list[list[dict]]:
    m = np.asarray(matrix, dtype=complex)
    return [[{"re": float(cell.real), "im": float(cell.imag)} for cell in row] for row in m]


def _json_float(value) -> float:
    """A JSON number as a float; booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError("integer too large for a float") from exc


def _json_int(value) -> int:
    """A JSON integer; floats are not truncated and booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_floats(value) -> np.ndarray:
    """A JSON list of numbers as a float array."""
    if not isinstance(value, list):
        raise TypeError(f"expected a list of numbers, got {value!r}")
    return np.array([_json_float(v) for v in value], dtype=float)


def _cell_to_complex(cell) -> complex:
    if isinstance(cell, dict):
        unknown = set(cell) - {"re", "im"}
        if unknown:
            raise ValueError(f"matrix cell has unknown keys {sorted(unknown)}")
        return complex(_json_float(cell.get("re", 0.0)), _json_float(cell.get("im", 0.0)))
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return complex(_json_float(cell), 0.0)
    raise ValueError(f"matrix cell must be a number or {{'re':..,'im':..}}, got {cell!r}")


def complex_matrix_from_json(data, shape=(4, 4)) -> np.ndarray:
    rows = list(data)
    matrix = np.array([[_cell_to_complex(cell) for cell in row] for row in rows], dtype=complex)
    if matrix.shape != shape:
        raise ValueError(f"expected matrix of shape {shape}, got {matrix.shape}")
    return matrix


def read_json(path, document: str) -> dict:
    """The one JSON object that the file at ``path`` holds.

    A file that is not JSON, that nests too deeply to decode, or whose value
    is not an object raises ValueError; ``document`` names the file in it.
    """
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{document} nests too deeply to decode") from None
    if not isinstance(data, dict):
        raise ValueError(f"{document} must contain a JSON object")
    return data


def _read_key(data: dict, key: str, convert, document: str, default=None):
    """``convert(data[key])`` for a key of a JSON object read from a file.

    An absent key gives ``default`` when one is set.  A missing required key,
    or a value that ``convert`` rejects with TypeError or ValueError, raises
    ValueError naming ``document`` and the key.
    """
    if key not in data:
        if default is None:
            raise ValueError(f"{document} is missing key {key!r}")
        return default
    try:
        return convert(data[key])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{document} key {key!r} is malformed: {exc}") from exc


def load_state(path) -> TwoQubitState:
    """Read a state file: either an explicit matrix or a named factory.

    Supported forms::

        {"matrix": [[{"re": .., "im": ..}, ...] x4]}
        {"factory": "werner", "p": 0.82}
        {"factory": "bell_diagonal", "lambdas": [.., .., .., ..]}
        {"factory": "random", "seed": 7, "ancilla_dim": 4}
    """
    document = "state file"
    data = read_json(path, document)
    if "matrix" in data:
        return validate_state(_read_key(data, "matrix", complex_matrix_from_json, document))
    if "factory" in data:
        name = data["factory"]
        if name == "werner":
            return werner(_read_key(data, "p", _json_float, document))
        if name == "bell_diagonal":
            return bell_diagonal(_read_key(data, "lambdas", _json_floats, document))
        if name == "random":
            seed = _read_key(data, "seed", _json_int, document)
            return random_state(seed, _read_key(data, "ancilla_dim", _json_int, document, 4))
        raise ValueError(f"unknown state factory {name!r}")
    raise ValueError("state file must contain either 'matrix' or 'factory'")


def bloch_to_json(form: BlochForm) -> dict:
    return {"n": form.n.tolist(), "m": form.m.tolist(), "T": form.T.tolist()}


def bound_check_to_json(check: BoundCheck) -> dict:
    return {
        "sum": check.sum_of_squares,
        "bound": check.bound,
        "slack": check.slack,
        "b_max": check.b_max,
    }


def filter_result_to_json(result: FilterResult) -> dict:
    return {
        "f_signal": complex_matrix_to_json(result.f_signal),
        "f_meter": complex_matrix_to_json(result.f_meter),
        "success_probability": result.success_probability,
        "iterations": result.iterations,
        "b_max_in": result.b_max_in,
        "b_max_out": result.b_max_out,
    }


def manifest_path(output_path) -> Path:
    path = Path(output_path)
    return path.with_name(path.name + ".manifest.json")


class StageClock:
    """Wall-clock seconds of a run's stages, in the order they end.

    Each :meth:`mark` ends a stage that began at the previous mark, or when
    the clock was made; ``stages`` maps ``"<stage>_s"`` to its seconds, so
    their sum is the run's duration so far.  It reads ``time.perf_counter``,
    the clock of ``verify.fuzz_bounds``'s own stage times.
    """

    def __init__(self):
        self.stages: dict[str, float] = {}
        self._last = time.perf_counter()

    def mark(self, stage: str) -> None:
        now = time.perf_counter()
        self.stages[f"{stage}_s"] = now - self._last
        self._last = now
