"""The demo scripts run end to end on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = Path(__file__).resolve().parents[1] / "src"

# A None entry in sys.modules makes every `import scipy` raise ImportError.
WITHOUT_SCIPY = (
    "import runpy, sys\n"
    "sys.modules['scipy'] = None\n"
    "runpy.run_path(sys.argv[1], run_name='__main__')\n"
)


def test_all_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs_without_scipy(demo, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
