"""File formats: JSON/CSV exports and run manifests; the readers of state
files and replay files are in ``_readers``.

All floats are rendered with 17 significant digits, which round-trips IEEE
doubles exactly; CSV files use LF line endings.  Both properties make every
seeded output byte-reproducible.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote  # json.dumps's str encoder
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # annotations only: io loads none of these modules
    from .canonical import FilterResult
    from .core import BlochForm
    from .knowledge import BoundCheck


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def _render_json(obj, indent: int) -> str:
    """``obj`` as pretty JSON at ``indent``.  numpy integers, floats and
    arrays render as their Python values; a dict, list or tuple subclass (a
    NamedTuple) renders as its items.  The dicts of a list that have the shape
    of its first are filled into one template of that shape (:func:`_plan`)."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, np.ndarray):
        return _render_json(obj.tolist(), indent)
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [f"{_quote(str(k))}: {_render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "}" if obj else "{}"
    if isinstance(obj, (list, tuple)):
        plan = _plan(obj[0], indent + 1) if len(obj) > 1 and type(obj[0]) is dict else None
        items = [plan and _fill(plan, v) or _render_json(v, indent + 1) for v in obj]
        return "[\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "]" if obj else "[]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# How a template renders a field of each exact type, as _render_json does:
# "%.17g" is format_float's format; a str is quoted, and a dict rendered by
# its own template, before it is filled in.
_FORMATS = {float: "%.17g", int: "%d", str: "%s", dict: "%s"}


def _plan(record: dict, indent: int):
    """How to render the dicts of ``record``'s shape at ``indent``: its keys,
    its fields' exact types, its %-template, and the index of each str field
    (with None) and dict field (with its own plan).  None where a key is not a
    str or a field is not a float, int, str or dict of such a shape."""
    items, fields = [], []
    for i, (key, value) in enumerate(record.items()):
        kind = type(value)
        if type(key) is not str or kind not in _FORMATS:
            return None
        if kind is str or kind is dict:
            fields.append((i, _plan(value, indent + 1) if kind is dict else None))
            if kind is dict and fields[-1][1] is None:
                return None
        items.append(_quote(key).replace("%", "%%") + ": " + _FORMATS[kind])
    pad = "  " * indent
    template = "{\n  " + pad + (",\n  " + pad).join(items) + "\n" + pad + "}" if items else "{}"
    return tuple(record), tuple(map(type, record.values())), template, fields


def _fill(plan: tuple, record) -> str | None:
    """``record`` rendered by ``plan``, or None when its shape is not the plan's."""
    keys, kinds, template, fields = plan
    if type(record) is not dict or tuple(record) != keys:
        return None
    if tuple(map(type, record.values())) != kinds:
        return None
    values = list(record.values())
    for i, nested in fields:
        values[i] = _quote(values[i]) if nested is None else _fill(nested, values[i])
        if values[i] is None:
            return None
    return template % tuple(values)


def dumps_json(obj) -> str:
    """Deterministic pretty JSON with 17-significant-digit floats."""
    return _render_json(obj, 0) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps_json(obj), encoding="utf-8", newline="\n")


def complex_matrix_to_json(matrix) -> list[list[dict]]:
    m = np.asarray(matrix, dtype=complex)
    return [[{"re": float(cell.real), "im": float(cell.imag)} for cell in row] for row in m]


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
