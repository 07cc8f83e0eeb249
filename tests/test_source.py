"""Rules on the source of ``src/``.

Invariants in ``src/`` are explicit checks: ``python -O`` strips an
``assert``, and a test run under ``-O`` only catches one that some test
happens to trip.  No module in ``src/`` uses ``dataclasses``: defining a
frozen dataclass runs generated code, about 1.3 ms per class in every process
that imports it, where a ``__slots__`` class takes about 0.013 ms.  Each
function that takes an array from its caller reads it by ``core._array``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def banned(node: ast.AST) -> bool:
    if isinstance(node, ast.Assert):
        return True
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses"
    if isinstance(node, ast.Import):
        return "dataclasses" in [alias.name for alias in node.names]
    return False


def test_src_has_no_assert_statements_or_dataclasses():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    hits = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        hits += [
            f"{path.relative_to(SRC.parent)}:{node.lineno}: {ast.get_source_segment(text, node)}"
            for node in ast.walk(ast.parse(text))
            if banned(node)
        ]
    assert not hits, "\n".join(hits)


# The functions that take an array from a caller; each reads it through
# core._array, the one rule for an array input, and converts none itself.
ARRAY_SITES = {
    "bellbound/core.py": (
        "TwoQubitState.__init__", "BlochForm.__init__", "QubitMeasurement.__init__",
        "_check_unitary", "rotation_from_quaternion", "unitary_from_rotation",
    ),
    "bellbound/factories.py": ("bell_diagonal",),
    "bellbound/expsim.py": ("mixing_model_from_schedule",),
}


def functions(tree: ast.Module):
    """Each function of a module by qualified name (a method as ``Class.name``)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def test_each_array_site_reads_its_array_by_the_one_rule():
    for path, names in ARRAY_SITES.items():
        defined = dict(functions(ast.parse((SRC / path).read_text(encoding="utf-8"))))
        for name in names:
            calls = [
                ast.unparse(node.func) for node in ast.walk(defined[name])
                if isinstance(node, ast.Call)
            ]
            assert "_array" in calls, f"{path}: {name}"
            assert not {"np.asarray", "np.array"} & set(calls), f"{path}: {name}"
