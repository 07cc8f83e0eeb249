"""Readers of the files a command takes as input: state files and replay files.

A module of its own, apart from :mod:`bellbound.io`, so that the commands that
read no file (``sweep``, ``surface``, ``simulate`` and a ``verify`` run) do
not compile it; ``analyze``, ``filter`` and ``verify --replay`` import it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .core import TwoQubitState, _integer, _real, validate_state
from .errors import BellboundError
from .factories import bell_diagonal, random_state, werner


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
