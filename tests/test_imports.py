"""Which modules each entry point loads, and the lazy package's name binding.

``import bellbound`` loads nothing, and each CLI subcommand imports only the
modules it uses, its own handler module among them, so these tests run each
entry point in a fresh interpreter and pin the set of ``bellbound`` modules it
loaded, whether it loaded numpy,
whether it loaded ``numpy.ma`` (which ``np.unique`` and everything built on
it import on first use, at about 12 ms per process), whether it loaded
``numpy.random`` (about 10 ms and 6 MB, for the commands that draw) and whether it loaded
``dataclasses`` (defining a frozen dataclass costs about 1.3 ms).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellbound as bb

# Runs ``python -m bellbound ARGV`` in this interpreter, then reports its exit
# code, the bellbound submodules it loaded and whether it loaded numpy,
# numpy.ma, numpy.random and dataclasses.
ENTRY_POINT = (
    "import json, runpy, sys\n"
    "sys.argv = ['bellbound', *json.loads(sys.argv[1])]\n"
    "try:\n"
    "    runpy.run_module('bellbound', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "loaded = sorted(m.split('.', 1)[1] for m in sys.modules if m.startswith('bellbound.'))\n"
    "watched = ('numpy', 'numpy.ma', 'numpy.random', 'dataclasses')\n"
    "modules = [code, loaded, *(m in sys.modules for m in watched)]\n"
    "sys.__stderr__.write(json.dumps(modules) + '\\n')\n"
)

CLI = {"cli", "errors"}
BASE = CLI | {"core", "factories", "io"}


def loaded_by(args, cwd):
    # run from ``cwd``, with the package found where this process found it
    source = str(Path(bb.__file__).parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT, json.dumps([str(a) for a in args])],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )
    code, loaded, numpy, numpy_ma, numpy_random, dataclasses = json.loads(
        proc.stderr.splitlines()[-1]
    )
    return code, set(loaded), numpy, numpy_ma, numpy_random, dataclasses


@pytest.mark.parametrize("args", [["--version"], ["--help"], ["--no-such-flag"], ["sweep", "-h"]])
def test_version_help_and_usage_errors_load_no_numpy(tmp_path, args):
    code, loaded, numpy, _, _, dataclasses = loaded_by(args, tmp_path)
    assert code in (0, 1)
    assert loaded == CLI
    assert not numpy
    assert not dataclasses


# The source lines of the bellbound modules (with ``__init__``) that each
# subcommand loads, which it compiles when no cached bytecode is at hand: a
# change that moves code into a module that a subcommand loads raises them.
@pytest.mark.parametrize(
    "args, modules, lines",
    [
        (["sweep", "--noise", "--theta-step", 30], BASE | {"_cli_experiment", "expsim"}, 1813),
        (["simulate", "--theta-step", 30], BASE | {"_cli_experiment", "expsim"}, 1813),
        (["sweep", "--theta-step", 30], BASE | {"_cli_experiment", "expsim", "knowledge"}, 2075),
        (
            ["surface", "--theta-step", 30, "--theta-prime-step", 30],
            BASE | {"_cli_experiment", "expsim", "knowledge"},
            2075,
        ),
        (["verify", "--trials", 10], BASE | {"_cli_verify", "knowledge", "verify"}, 1792),
        (
            ["analyze", "state.json"],
            BASE | {"_cli_state", "_readers", "knowledge", "canonical", "_local"},
            2210,
        ),
        # the filtered state is certified optimal, so no search loads _ridge
        (
            ["filter", "state.json"],
            BASE | {"_cli_state", "_readers", "knowledge", "canonical", "_local", "_optimum"},
            2344,
        ),
    ],
)
def test_each_subcommand_loads_only_its_modules(tmp_path, args, modules, lines):
    (tmp_path / "state.json").write_text('{"factory": "werner", "p": 0.82}')
    code, loaded, numpy, numpy_ma, numpy_random, dataclasses = loaded_by(
        [*args, "--out", "out"], tmp_path
    )
    assert code == 0
    assert loaded == modules
    assert numpy
    # verify once reached numpy.ma through np.union1d
    assert not numpy_ma
    # only the commands that draw shot noise or random trials
    assert numpy_random == (args[0] in ("simulate", "verify") or "--noise" in args)
    assert not dataclasses
    package = Path(bb.__file__).parent
    files = [package / f"{name}.py" for name in loaded | {"__init__"}]
    assert sum(len(path.read_text().splitlines()) for path in files) <= lines


@pytest.mark.parametrize(
    "state, report",
    [
        ("werner(0.82)", "certified False False"),
        ("random_state(0, 1)", "flat True False"),
        ("random_state(0, 4)", "searched True True"),
    ],
)
def test_only_a_search_loads_the_ridge_module(state, report):
    # a certified state loads neither the flat test nor the search
    script = (
        "import sys\n"
        "from bellbound import optimize_excess_sum, random_state, werner\n"
        f"path = optimize_excess_sum({state}).path\n"
        "print(path, *(f'bellbound.{m}' in sys.modules for m in ('_flat', '_ridge')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == report


def test_import_bellbound_loads_no_submodule_and_no_numpy():
    script = (
        "import sys\n"
        "import bellbound\n"
        "print(sorted(m for m in sys.modules if m.startswith('bellbound') or m == 'numpy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['bellbound']"


@pytest.mark.parametrize(
    "imports",
    [
        "import bellbound",
        "import bellbound.knowledge",
        "import bellbound.knowledge as k; assert k is bellbound.knowledge",
        "from bellbound import knowledge as k; assert k is bellbound.knowledge",
        "from bellbound.knowledge import knowledge as k; assert k is bellbound.knowledge",
        "import bellbound.canonical",
        "import bellbound.verify",
        "import bellbound.cli; bellbound.cli.main(['verify', '--trials', '3'])",
        "from bellbound import *",
        "import importlib; importlib.reload(importlib.import_module('bellbound.knowledge'))",
    ],
)
def test_knowledge_is_the_function_after_any_import_order(imports):
    script = (
        "import bellbound\n"
        f"{imports}\n"
        "import bellbound.knowledge\n"
        "import sys, types\n"
        "assert isinstance(bellbound.knowledge, types.FunctionType), bellbound.knowledge\n"
        "assert bellbound.knowledge is sys.modules['bellbound.knowledge'].knowledge\n"
        "print('ok')\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


def test_lazy_loads_are_timed_by_importtime():
    # -X importtime times __import__ but not importlib.import_module, so a lazy
    # load through the latter once left its module out of the table.
    script = (
        "import bellbound\n"
        "bellbound.random_state(0, 4)\n"
        "bellbound.canonical\n"
        "assert callable(bellbound.knowledge)\n"
        "bellbound.knowledge(bellbound.werner(0.5), *[bellbound.QubitMeasurement([0, 0, 1])] * 2)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", script], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    timed = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"bellbound.factories", "bellbound.canonical", "bellbound.knowledge"} <= timed


def test_exports_are_resolved_on_every_access(monkeypatch):
    # A patch of the defining module (or a tracer's wrapper) is seen through
    # the package, because the package caches nothing.
    import bellbound.factories as factories

    original = bb.werner

    def fake(p):
        return p

    monkeypatch.setattr(factories, "werner", fake)
    assert bb.werner is fake
    monkeypatch.undo()
    assert bb.werner is original
    assert "werner" not in vars(bb)


def test_all_keeps_its_names():
    assert len(bb.__all__) == 75
    assert bb.__all__ == sorted(bb.__all__)
    for name in bb.__all__:
        assert getattr(bb, name) is not None
    assert {"core", "canonical", "errors", "expsim", "factories"} <= set(bb.__all__)
    assert set(bb.__all__) <= set(dir(bb))
    with pytest.raises(AttributeError, match="no_such_name"):
        bb.no_such_name
