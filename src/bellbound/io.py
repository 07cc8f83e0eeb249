"""File formats: JSON input files and state files, JSON/CSV exports.

All floats are rendered with 17 significant digits, which round-trips IEEE
doubles exactly; CSV files use LF line endings.  Both properties make every
seeded output byte-reproducible.
"""

from __future__ import annotations

import json
import time
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's str encoder
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import BlochForm, TwoQubitState, _integer, _real, validate_state
from .errors import BellboundError
from .factories import bell_diagonal, random_state, werner

if TYPE_CHECKING:  # annotations only: io loads neither module
    from .canonical import FilterResult
    from .knowledge import BoundCheck


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _render_json(obj, indent: int) -> str:
    """``obj`` as pretty JSON at ``indent``.  numpy integers, floats and
    arrays render as their Python values; a dict, list or tuple subclass (a
    NamedTuple) renders as its items.  A float, dict, list or tuple, the bulk
    of a report, is told by its exact type before the isinstance chain."""
    kind = type(obj)
    if kind is float:
        return format(obj, ".17g")
    pad = "  " * indent
    if kind is dict:
        items = [f"{_quote(str(k))}: {_render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "}" if obj else "{}"
    if kind is list or kind is tuple:
        items = [_render_json(v, indent + 1) for v in obj]
        return "[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]" if obj else "[]"
    if isinstance(obj, (bool, str)) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), indent)
    if isinstance(obj, (dict, list, tuple)):
        return _render_json(dict(obj) if isinstance(obj, dict) else list(obj), indent)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj) -> str:
    """Deterministic pretty JSON with 17-significant-digit floats."""
    return _render_json(obj, 0) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8", newline="\n")


def complex_matrix_to_json(matrix) -> list[list[dict]]:
    m = np.asarray(matrix, dtype=complex)
    return [[{"re": float(cell.real), "im": float(cell.imag)} for cell in row] for row in m]


def _cell_to_complex(cell) -> complex:
    cell = cell if isinstance(cell, dict) else {"re": cell}
    unknown = set(cell) - {"re", "im"}
    if unknown:
        raise ValueError(f"matrix cell has unknown keys {sorted(unknown)}")
    return complex(*(_real(cell.get(part, 0.0), f"matrix cell {part}") for part in ("re", "im")))


def complex_matrix_from_json(data) -> list[list[complex]]:
    """The cells of a JSON matrix as complex numbers; the shape is left to ``TwoQubitState``."""
    return [[_cell_to_complex(cell) for cell in row] for row in data]


def state_from_json(data) -> TwoQubitState:
    """The validated state of a JSON matrix."""
    return validate_state(complex_matrix_from_json(data))


def read_json(path, document: str) -> dict:
    """The one JSON object that the file at ``path`` holds.

    A file that is not JSON, that nests too deeply to decode, or whose value
    is not an object raises ValueError; ``document`` names the file in it.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{document} nests too deeply to decode") from None
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError alike
        raise ValueError(f"{document} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{document} must contain a JSON object")
    return data


def _read_key(data: dict, key: str, convert, document: str, default=None):
    """``convert(data[key])`` for a key of a JSON object read from a file.

    An absent key gives ``default`` when one is set.  A missing required key,
    or a value that ``convert`` rejects with TypeError, ValueError or a
    library error (a state that fails validation, a parameter out of range),
    raises ValueError naming ``document`` and the key.
    """
    if key not in data:
        if default is None:
            raise ValueError(f"{document} is missing key {key!r}")
        return default
    try:
        return convert(data[key])
    except (TypeError, ValueError, BellboundError) as exc:
        raise ValueError(f"{document} key {key!r} is malformed: {exc}") from exc


def _check_keys(data: dict, form: str, keys: tuple) -> None:
    """ValueError naming the keys of a state file that its ``form`` does not read."""
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValueError(f"state file has unknown keys {unknown}: a {form} reads only {list(keys)}")


def load_state(path) -> TwoQubitState:
    """Read a state file: either an explicit matrix or a named factory.

    Supported forms::

        {"matrix": [[{"re": .., "im": ..}, ...] x4]}
        {"factory": "werner", "p": 0.82}
        {"factory": "bell_diagonal", "lambdas": [.., .., .., ..]}
        {"factory": "random", "seed": 7, "ancilla_dim": 4}

    A key that the file's form does not read raises ValueError naming it.
    """
    document = "state file"
    data = read_json(path, document)
    if "matrix" in data and "factory" in data:
        raise ValueError("state file must contain either 'matrix' or 'factory', not both")
    if "matrix" in data:
        _check_keys(data, "matrix file", ("matrix",))
        return _read_key(data, "matrix", state_from_json, document)
    if "factory" in data:
        name = data["factory"]
        if name == "werner":
            _check_keys(data, "werner factory", ("factory", "p"))
            return _read_key(data, "p", werner, document)
        if name == "bell_diagonal":
            _check_keys(data, "bell_diagonal factory", ("factory", "lambdas"))
            return _read_key(data, "lambdas", bell_diagonal, document)
        if name == "random":
            _check_keys(data, "random factory", ("factory", "seed", "ancilla_dim"))
            seed = _read_key(data, "seed", lambda v: _integer(v, "seed"), document)
            dim = _read_key(data, "ancilla_dim", lambda v: _integer(v, "ancilla_dim"), document, 4)
            return random_state(seed, dim)
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
