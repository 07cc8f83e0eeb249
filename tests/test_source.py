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
of R's blocks.  A value type reads its caller's fields by its ``_rules``
table in ``_Frozen.__init__``, and only ``MixingModel`` adds an ``__init__``,
for the checks across its fields.  ``cli.main`` builds each run's clock and
resolves its parameters, so no command handler does.  ``src/`` stays within
a line budget that a change to its size updates on purpose.
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


# The functions that take an array from a caller, and the rule tables of the
# value types that hold arrays (``Class._rules``, whose array fields
# tests/test_frozen.py pins); each reads the array through core._array, the
# one rule for an array input, or through core._arrays, the rule of an array
# field, which reads it by _array.  None converts an array itself.
ARRAY_SITES = {
    "bellbound/core.py": (
        "_arrays", "TwoQubitState._rules", "BlochForm._rules", "QubitMeasurement._rules",
    ),
    "bellbound/_local.py": (
        "ConditionalDecomposition._rules", "_check_unitary", "rotation_from_quaternion",
        "unitary_from_rotation",
    ),
    "bellbound/factories.py": ("bell_diagonal",),
    "bellbound/_mixing.py": ("mixing_model_from_schedule",),
    "bellbound/canonical.py": ("CanonicalForm._rules", "FilterResult._rules"),
    "bellbound/verify.py": ("FuzzInstance._rules",),
}


def functions(tree: ast.Module):
    """Each function of a module by qualified name (a method as ``Class.name``),
    and each class's rule table, its ``_rules`` assignment, as ``Class._rules``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
                elif isinstance(item, ast.Assign) and "_rules" in map(ast.unparse, item.targets):
                    yield f"{node.name}._rules", item


def test_each_array_site_reads_its_array_by_the_one_rule():
    for path, names in ARRAY_SITES.items():
        defined = dict(functions(ast.parse((SRC / path).read_text(encoding="utf-8"))))
        for name in names:
            calls = [
                ast.unparse(node.func) for node in ast.walk(defined[name])
                if isinstance(node, ast.Call)
            ]
            rule = "_arrays" if name.endswith("._rules") else "_array"
            assert rule in calls, f"{path}: {name}"
            assert not {"np.asarray", "np.array"} & set(calls), f"{path}: {name}"


def value_types(trees: dict) -> dict:
    """Each class that derives from ``_Frozen``, by name, with its module's path."""
    return {
        node.name: (path, node) for path, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and "_Frozen" in map(ast.unparse, node.bases)
    }


def test_only_the_mixing_model_writes_its_own_constructor():
    # _Frozen.__init__ reads every field by its type's _rules table; a
    # MixingModel then checks its weights against each other
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    types = value_types(trees)
    assert len(types) == 10
    hits = [
        f"{path.name}: {name}"
        for name, (path, node) in types.items()
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name == "__init__"
    ]
    assert hits == ["_mixing.py: MixingModel"]
    # nor does any set __hash__: hashing a value's fields reaches its arrays
    assert not [
        name for name, (_, node) in types.items() for item in node.body
        if isinstance(item, ast.Assign) and "__hash__" in map(ast.unparse, item.targets)
    ]


def test_no_handler_builds_a_clock_or_resolves_its_parameters():
    # cli.main builds the run's StageClock and resolves the parameters once,
    # then calls cmd_<command>(ns, clock, params)
    handlers = []
    for path in sorted((SRC / "bellbound").glob("_cli_*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, function in functions(tree):
            if name.startswith("cmd_"):
                handlers.append(name)
                assert [arg.arg for arg in function.args.args] == ["ns", "clock", "params"], name
                names = {
                    node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(function) if isinstance(node, (ast.Name, ast.Attribute))
                }
                assert not {"StageClock", "_resolve"} & names, f"{path.name}: {name}"
                # _import_stage ends the load stage; a handler marks only its own compute
                marks = [
                    ast.literal_eval(node.args[0]) for node in ast.walk(function)
                    if isinstance(node, ast.Call) and ast.unparse(node.func) == "clock.mark"
                ]
                assert marks == ["compute"], f"{path.name}: {name}"
    assert len(handlers) == 6


# src/'s lines at the last change to its size.  A change that grows src/ raises
# this on purpose, and one that shrinks it lowers it.
SRC_LINES = 3512


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in SRC.rglob("*.py"))
    assert lines <= SRC_LINES


def test_no_private_function_builds_a_value_through_the_callers_door():
    # A private function holds what the library made, so it builds a value
    # type by _of; the command line builds values from what the user typed.
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))}
    types = set(value_types(trees))
    assert {"TwoQubitState", "QubitMeasurement", "CountRecord", "FuzzInstance"} <= types
    hits = [
        f"{path.name}: {name} calls {node.func.id}"
        for path, tree in trees.items()
        if path.name != "cli.py" and not path.name.startswith("_cli_")
        for name, function in functions(tree) if name.rsplit(".", 1)[-1].startswith("_")
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in types
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
