"""bellbound benchmark: end-to-end CLI/library runs and a traced per-layer run.

Run from the root of a source checkout (the program is run from ``src/``):

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``fuzz`` runs ``bellbound verify``,
``experiment`` runs ``simulate``, ``sweep --noise`` and two ``surface`` runs,
``optimize`` runs the library script optimize_batch.py.  Operations run one at
a time in a closed loop, each step as a fresh process, for about
``--seconds``.  Every output is checked (checks.py); a nonzero exit, an
exception or a failed check counts as a failed operation.

``--trace 0`` reports the end-to-end metrics: median CPU times of the
operations and of cold starts, each divided by the CPU time of the fixed
calibration work (calibrate.py) run beside it, so that they do not move
with the shared host's speed (see README.md).  ``--trace 1`` runs the same
operations in one interpreter, each untraced and traced (inproc.py,
tracer.py), and reports per-layer metrics, the import breakdown and the
tracing overhead.
The last line of standard output is the JSON result; the lines before it
repeat every figure by name with its unit.  Full results, the environment
stamp and the spans are saved under ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from checks import check_step, load_references
from workloads import WORKLOADS, another_operation, operations

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

# Reported CPU times are scaled to a host on which calibrate.py takes this
# many CPU seconds (README.md, "End-to-end metrics").
CALIBRATION_REF_S = 1.0
# Calibration processes per round.  A single process's CPU time jitters by
# 10-30%, and with one per round the calibration's jitter, not the
# operations', set most of the run-to-run spread.
CALIBRATION_RUNS = 2
IMPORT_REPEATS = 3
RUN_LIMIT_S = 170.0  # every process is killed after this much of the run

END_TO_END = {"setup_s": "s", "op_cpu_s": "s", "items_per_cpu_s": "1/s", "peak_rss_mb": "MB"}

_PER_CALL = ("calls", "us_per_call")
PER_LAYER = {
    "import.numpy_s": "s",
    "import.scipy_s": "s",
    "import.bellbound_self_s": "s",
    "import.total_s": "s",
    "core.decompose.calls": "count",
    "core.decompose.us_per_call": "us",
    "core.conditional_decompose.calls": "count",
    "core.validate_state.calls": "count",
    "core.validate_state.us_per_call": "us",
    **{
        f"knowledge.{fn}.{what}": "count" if what == "calls" else "us"
        for fn in ("knowledge", "knowledge_excess", "bell_max", "check_bound",
                   "check_same_meter_bound")
        for what in _PER_CALL
    },
    "knowledge.optimize_excess_sum.calls": "count",
    "knowledge.optimize_excess_sum.ms_per_call": "ms",
    "knowledge.optimize_excess_sum.nfev": "count",
    "knowledge.optimize_excess_sum.miss_ratio": "ratio",
    "canonical.filter_normal_form.calls": "count",
    "canonical.filter_normal_form.us_per_call": "us",
    "canonical.filter_normal_form.iterations": "count",
    "canonical.canonical_form.us_per_call": "us",
    "expsim.simulate_counts.calls": "count",
    "expsim.simulate_counts.us_per_call": "us",
    "expsim.coincidence_probs.us_per_call": "us",
    "expsim.run_sweep_experiment.self_s": "s",
    "io.render_s": "s",
    "io.bytes_out": "bytes",
    "verify.run_trial.calls": "count",
    "verify.run_trial.us_per_call": "us",
    "verify.fuzz_bounds.self_s": "s",
    **{
        f"{layer}.self_s": "s"
        for layer in ("core", "factories", "knowledge", "canonical", "expsim", "verify",
                      "io", "cli", "scipy")
    },
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class RunError(Exception):
    """The benchmark cannot run here (as opposed to a failed operation)."""


# One BLAS thread: the program's matrices are 4x4, so a BLAS pool does no work
# for it, but its idle threads spin and add a variable share of CPU time.
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = {**os.environ, **SINGLE_THREADED}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Proc(NamedTuple):
    """A finished process: wall and CPU (user + system) seconds, peak RSS."""

    wall: float
    cpu: float
    rss_mb: float
    code: int
    out: str
    err: str


class Runner:
    """Starts processes one at a time, waits for each and keeps its rusage."""

    def __init__(self, workdir: Path):
        self.env = child_env()
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S

    def run(self, argv: list[str], capture: bool = False, stdin: Path | None = None) -> Proc:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise RunError("run time limit reached")
        err_path = self.workdir / "stderr.txt"
        with open(err_path, "wb") as err, open(stdin or os.devnull, "rb") as feed:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.env,
                stdin=feed,
                stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                stderr=err,
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read().decode() if capture else ""
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                if capture:
                    proc.stdout.close()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, out, err_path.read_text())

    def json_of(self, argv: list[str], stdin: Path | None = None) -> dict:
        """Last stdout line of a benchmark helper, which must exit 0."""
        proc = self.run(argv, capture=True, stdin=stdin)
        if proc.code != 0:
            raise RunError(f"{Path(argv[1]).name}: exit {proc.code}: {proc.err.strip()[-400:]}")
        return json.loads(proc.out.strip().splitlines()[-1])


def bellbound_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "bellbound", *args]


def helper_argv(script: str, *args: str) -> list[str]:
    return [sys.executable, str(BENCH_DIR / script), *args]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "bellbound").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def start_up(runner: Runner) -> float:
    """CPU time of one cold ``python -m bellbound --version``."""
    proc = runner.run(bellbound_argv("--version"))
    if proc.code != 0:
        raise RunError(f"bellbound --version: exit {proc.code}: {proc.err.strip()[-400:]}")
    return proc.cpu


def calibrate(runner: Runner) -> float:
    """Mean CPU time of CALIBRATION_RUNS runs of the fixed calibration work
    (calibrate.py)."""
    times = []
    for _ in range(CALIBRATION_RUNS):
        proc = runner.run(helper_argv("calibrate.py"))
        if proc.code != 0:
            raise RunError(f"calibrate.py: exit {proc.code}: {proc.err.strip()[-400:]}")
        times.append(proc.cpu)
    return statistics.mean(times)


def run_operation(runner: Runner, op, op_dir: Path):
    """Runs one operation as processes: (wall s, CPU s, peak MB, results)."""
    wall = cpu = peak = 0.0
    results = []
    for step in op:
        if step.kind == "optimize":
            proc = runner.run(helper_argv("optimize_batch.py", *step.args), capture=True)
            if proc.code == 0:
                result = json.loads(proc.out.strip().splitlines()[-1])["states"]
            else:
                error = f"optimize_batch.py: exit {proc.code}: {proc.err.strip()[-200:]}"
                result = [{"error": error}] * len(step.args)
        else:
            proc = runner.run(bellbound_argv(*step.args, "--out", str(op_dir / step.out)))
            result = proc.code
        wall += proc.wall
        cpu += proc.cpu
        peak = max(peak, proc.rss_mb)
        results.append(result)
    return wall, cpu, peak, results


def optimizer_misses(runner: Runner, states: list[dict]) -> dict:
    """Misses of optimize_excess_sum against optcheck.py's reference, one
    record per state (operations repeat the corpus)."""
    unique = list({(state["seed"], state["rank"]): state for state in states}.values())
    path = runner.workdir / "states.json"
    path.write_text(json.dumps({"states": unique}))
    return runner.json_of(helper_argv("optcheck.py"), stdin=path)


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, report: dict):
    references = load_references()
    op_cpu: list[float] = []
    op_items: list[int] = []
    setups: list[float] = []
    raw_op_cpu: list[float] = []
    raw_setups: list[float] = []
    op_wall: list[float] = []
    round_walls: list[float] = []
    states: list[dict] = []
    errors: list[str] = []
    peak = 0.0
    attempted = 0
    start = time.perf_counter()
    calibrations = [calibrate(runner)]
    for index, op in enumerate(operations(workload, seed)):
        began = time.perf_counter()
        if not another_operation(began - start, seconds, round_walls):
            break
        op_dir = runner.workdir / f"op{index}"
        op_dir.mkdir()
        wall, cpu, op_peak, results = run_operation(runner, op, op_dir)
        setup = start_up(runner)
        calibrations.append(calibrate(runner))
        # The host's speed now, from the calibration runs on either side.
        scale = CALIBRATION_REF_S / statistics.mean(calibrations[-2:])
        op_cpu.append(cpu * scale)
        setups.append(setup * scale)
        raw_op_cpu.append(cpu)
        raw_setups.append(setup)
        op_wall.append(wall)
        op_items.append(sum(step.items for step in op))
        round_walls.append(time.perf_counter() - began)
        peak = max(peak, op_peak)
        for step, result in zip(op, results):
            reasons = check_step(step, result, op_dir, references)
            attempted += len(reasons)
            errors += [reason for reason in reasons if reason is not None]
            if step.kind == "optimize":
                states += result
        shutil.rmtree(op_dir)

    metrics = {
        "setup_s": statistics.median(setups),
        "op_cpu_s": statistics.median(op_cpu),
        "items_per_cpu_s": statistics.median(n / t for n, t in zip(op_items, op_cpu)),
        "peak_rss_mb": peak,
    }
    report["operations"] = len(op_cpu)
    report["op_cpu_s_all"] = op_cpu
    raw = {"op_cpu_s": raw_op_cpu, "setup_s": raw_setups, "calibration_s": calibrations}
    report.update({f"raw_{key}_all": values for key, values in raw.items()})
    report.update({f"raw_{key}": statistics.median(values) for key, values in raw.items()})
    report["op_wall_s"] = statistics.median(op_wall)
    report["items_per_wall_s"] = sum(op_items) / sum(op_wall)
    report["fail_ratio"] = f"{len(errors)}/{attempted}"
    timed = [state["cpu_ms"] for state in states if "sum" in state]
    if timed:
        report["item_p50_ms"] = statistics.median(timed)
        tail_at = tail(timed)
        if tail_at is not None:
            report["item_tail_percentile"], report["item_tail_ms"] = tail_at
        report["item_samples"] = len(timed)
        check = optimizer_misses(runner, states)
        report["optimize_miss_ratio"] = f"{check['misses']}/{check['base']}"
        report["optimize_missed"] = check["missed"]
    return metrics, attempted, errors


def import_breakdown(runner: Runner) -> dict[str, float]:
    """Self import time by top-level package, from ``-X importtime``."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = runner.run([sys.executable, "-X", "importtime", "-c", "import bellbound.cli"])
        if proc.code != 0:
            raise RunError(f"import bellbound.cli: exit {proc.code}: {proc.err.strip()[-400:]}")
        by_package: dict[str, float] = {}
        for line in proc.err.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            package = fields[2].strip().split(".")[0]
            by_package[package] = by_package.get(package, 0.0) + int(fields[0]) * 1e-6
        samples.append({
            "import.numpy_s": by_package.get("numpy", 0.0),
            "import.scipy_s": by_package.get("scipy", 0.0),
            "import.bellbound_self_s": by_package.get("bellbound", 0.0),
            "import.total_s": sum(by_package.values()),
        })
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def per_layer(runner: Runner, workload: str, seed: int, seconds: float, report: dict):
    metrics = import_breakdown(runner)
    spans = RUNS / f"{workload}-seed{seed}.spans.npz"
    run = runner.json_of(helper_argv(
        "inproc.py", "--workload", workload, "--seed", str(seed),
        "--workdir", str(runner.workdir / "inproc"), "--seconds", str(seconds),
        "--spans", str(spans),
    ))
    layers = run["layers"]
    metrics.update({name: layers.get(name, 0.0) for name in PER_LAYER if name not in metrics})
    untraced, traced = run["untraced_seconds"], run["traced_seconds"]
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_ratio"] = overhead / statistics.median(untraced)
    if workload == "optimize":
        check = optimizer_misses(runner, run["states"])
        metrics["knowledge.optimize_excess_sum.miss_ratio"] = check["misses"] / check["base"]
        report["optimize_miss_ratio"] = f"{check['misses']}/{check['base']}"
    else:
        metrics["knowledge.optimize_excess_sum.miss_ratio"] = 0.0
    report["operations"] = len(traced)
    report["untraced_op_s"] = untraced
    report["traced_op_s"] = traced
    report["all_spans"] = layers
    report["spans_file"] = str(spans.relative_to(ROOT))
    report["fail_ratio"] = f"{len(run['errors'])}/{run['attempted']}"
    return metrics, run["attempted"], run["errors"]


def main() -> int:
    parser = argparse.ArgumentParser(description="bellbound benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "bellbound" / "__init__.py").is_file():
        print(f"error: no bellbound sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir()
    runner = Runner(workdir)
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "environment": environment()}
    try:
        if args.trace:
            metrics, attempted, errors = per_layer(
                runner, args.workload, args.seed, args.seconds, report)
            units = PER_LAYER
        else:
            metrics, attempted, errors = end_to_end(
                runner, args.workload, args.seed, args.seconds, report)
            units = END_TO_END
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report.update(result, errors=errors[:20])
    saved = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    saved.write_text(json.dumps(report, indent=1) + "\n")
    for key, value in report["environment"].items():
        print(f"# {key}: {value}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    for key in ("operations", "raw_op_cpu_s", "raw_setup_s", "raw_calibration_s",
                "op_wall_s", "items_per_wall_s", "fail_ratio", "item_p50_ms", "item_tail_ms",
                "item_tail_percentile", "item_samples", "optimize_miss_ratio"):
        if key in report:
            print(f"{key} = {report[key]}")
    for error in errors[:5]:
        print(f"FAILED: {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
