"""Rules on the source of ``src/``.

Invariants in ``src/`` are explicit checks: ``python -O`` strips an
``assert``, and a test run under ``-O`` only catches one that some test
happens to trip.  No module in ``src/`` uses ``dataclasses``: defining a
frozen dataclass runs generated code, about 1.3 ms per class in every process
that imports it, where a ``__slots__`` class takes about 0.013 ms.  Each
function that takes an array from its caller reads it by ``core._array``, and
the library builds the values it returns by ``_Frozen._of``, not through the
door for a caller's values.  ``cli.py`` holds no command's handler: ``main``
imports the handler module of the command it parsed, so a process compiles
only its own command's handlers.  Only the program's exit path, ``cli.run``,
imports ``gc``, so a library call and ``cli.main`` leave the collector alone.
A local unitary or filter acts on the correlation matrix R, never on the 4x4
density matrix by a Kronecker product: ``_local._rotated`` is the one rotation
of R's blocks.
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
    ),
    "bellbound/_local.py": (
        "ConditionalDecomposition.__init__", "_check_unitary", "rotation_from_quaternion",
        "unitary_from_rotation",
    ),
    "bellbound/factories.py": ("bell_diagonal",),
    "bellbound/_mixing.py": ("mixing_model_from_schedule",),
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
        for path, tree in trees.items()
        if path.name != "cli.py" and not path.name.startswith("_cli_")
        for name, function in functions(tree) if name.rsplit(".", 1)[-1].startswith("_")
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in value_types
    ]
    assert not hits, "\n".join(hits)


def test_the_cli_front_holds_and_imports_no_handler():
    # main imports a command's handler module by name once it has parsed the
    # command; no import statement in src/ names a handler module, so neither
    # cli.py nor one handler module loads another's handlers
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    cli = trees[SRC / "bellbound" / "cli.py"]
    assert not [name for name, _ in functions(cli) if name.startswith("cmd_")]
    handler_modules = sorted(path.name for path in trees if path.name.startswith("_cli_"))
    assert handler_modules == ["_cli_experiment.py", "_cli_state.py", "_cli_verify.py"]
    hits = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "_cli_" in ast.unparse(node)
    ]
    assert not hits, "\n".join(hits)


def test_only_the_package_runs_as_a_script():
    # python -m bellbound.cli once ran cli.py as __main__, and the handler
    # module's import of bellbound.cli compiled it a second time; the package's
    # __main__.py and the installed script are the ways to run the CLI
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py")) if path.name != "__main__.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Compare) and "__main__" in ast.unparse(node)
    ]
    assert not hits, "\n".join(hits)


def test_only_the_exit_path_imports_gc():
    # cli.run turns the collector off for the command and freezes the objects
    # left once it is done; the library and cli.main leave it as they find it
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(node): name for name, function in functions(tree) for node in ast.walk(function)}
        hits += [
            f"{path.relative_to(SRC)}:{owners.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) and "gc" in [alias.name for alias in node.names]
            or isinstance(node, ast.ImportFrom) and node.module == "gc"
        ]
    assert hits == [str(Path("bellbound", "cli.py:run"))]


def test_no_module_builds_a_kronecker_product():
    # canonical_form, the filter's final rotation and apply_local_unitary all
    # turn R's blocks by _local._rotated and build the matrix once by _density
    hits = [
        f"{path.relative_to(SRC)}:{node.lineno}: {ast.unparse(node)}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "kron"
        or isinstance(node, ast.Name) and node.id == "kron"
        or isinstance(node, ast.alias) and node.name == "kron"
    ]
    assert not hits, "\n".join(hits)
