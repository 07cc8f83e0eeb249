"""Rules on the source of ``src/``.

Invariants in ``src/`` are explicit checks: ``python -O`` strips an
``assert``, and a test run under ``-O`` only catches one that some test
happens to trip.  No module in ``src/`` uses ``dataclasses``: defining a
frozen dataclass runs generated code, about 1.3 ms per class in every process
that imports it, where a ``__slots__`` class takes about 0.013 ms.  Each
function that takes an array from its caller reads it by ``core._array``, and
the library builds the values it returns by ``_Frozen._of``, not through the
door for a caller's values.
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
        "ConditionalDecomposition.__init__", "_check_unitary", "rotation_from_quaternion",
        "unitary_from_rotation",
    ),
    "bellbound/factories.py": ("bell_diagonal",),
    "bellbound/expsim.py": ("mixing_model_from_schedule",),
    "bellbound/canonical.py": ("CanonicalForm.__init__", "FilterResult.__init__"),
    "bellbound/verify.py": ("FuzzInstance.__init__",),
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


def test_no_private_function_builds_a_value_through_the_callers_door():
    # A private function holds what the library made, so it builds a value
    # type by _of; the command line builds values from what the user typed.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    value_types = {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "_Frozen" in map(ast.unparse, node.bases)
    }
    assert {"TwoQubitState", "QubitMeasurement", "CountRecord", "FuzzInstance"} <= value_types
    hits = [
        f"{path.name}: {name} calls {node.func.id}"
        for path, tree in trees.items() if path.name != "cli.py"
        for name, function in functions(tree) if name.rsplit(".", 1)[-1].startswith("_")
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in value_types
    ]
    assert not hits, "\n".join(hits)
