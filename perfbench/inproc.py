"""The per-layer run: a workload's operations inside one interpreter, traced.

Each operation runs twice, untraced and traced, in alternating order, for
about ``--seconds``; the difference of the two CPU times is the
tracing overhead.  Every output is checked as in the end-to-end run.  The
spans are saved to ``--spans``; the last line of standard output is a JSON
summary with the per-layer metrics.

    PYTHONPATH=src python3 perfbench/inproc.py --workload fuzz --seed 1 \
        --workdir .perfbench_runs/x --seconds 10 --spans trace.npz
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import bellbound.cli

from checks import check_step, load_references
from optimize_batch import run_state
from tracer import Tracer
from workloads import WORKLOADS, another_operation, operations, parse_state_spec


def run_step(step, op_dir: Path):
    """Run one step in this process; returns an exit code or state records."""
    if step.kind == "optimize":
        return [run_state(*parse_state_spec(spec)) for spec in step.args]
    try:
        return bellbound.cli.main([*step.args, "--out", str(op_dir / step.out)])
    except SystemExit as exc:
        return exc.code
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class Pass:
    """One of the two runs of every operation, with its checked results."""

    def __init__(self, name: str, references: dict, tracer: Tracer | None = None):
        self.name = name
        self.references = references
        self.tracer = tracer
        self.seconds: list[float] = []
        self.attempted = 0
        self.errors: list[str] = []
        self.states: list[dict] = []

    def run(self, op, op_dir: Path) -> None:
        """Runs one operation, keeps its CPU time, then checks its outputs."""
        op_dir.mkdir(parents=True)
        if self.tracer is not None:
            self.tracer.install()
        began = time.process_time()
        try:
            results = [run_step(step, op_dir) for step in op]
        finally:
            self.seconds.append(time.process_time() - began)
            if self.tracer is not None:
                self.tracer.remove()
        for step, result in zip(op, results):
            reasons = check_step(step, result, op_dir, self.references)
            self.attempted += len(reasons)
            self.errors += [reason for reason in reasons if reason is not None]
            if step.kind == "optimize":
                self.states += result
        shutil.rmtree(op_dir)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", type=Path, required=True, help="where to save the spans")
    args = parser.parse_args()

    references = load_references()
    tracer = Tracer()
    untraced = Pass("untraced", references)
    traced = Pass("traced", references, tracer)
    start = time.perf_counter()
    pair_walls: list[float] = []
    for index, op in enumerate(operations(args.workload, args.seed)):
        began = time.perf_counter()
        if not another_operation(began - start, args.seconds, pair_walls):
            break
        for run in (untraced, traced) if index % 2 == 0 else (traced, untraced):
            run.run(op, args.workdir / f"op{index}-{run.name}")
        pair_walls.append(time.perf_counter() - began)

    summary = {
        "untraced_seconds": untraced.seconds,
        "traced_seconds": traced.seconds,
        "attempted": untraced.attempted + traced.attempted,
        "errors": untraced.errors + traced.errors,
        "states": traced.states,
        "layers": tracer.metrics(len(traced.seconds)),
    }
    tracer.write(args.spans)
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
