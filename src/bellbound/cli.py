"""Command-line front end: analyze, sweep, surface, simulate, verify, filter.

Exit codes: 0 success, 1 usage, input or validation error, 2 verified-property
violation.  Data goes to --out (with a sibling run manifest) or to standard
output; diagnostics go to standard error.  Parameter precedence is CLI flags
over config file over built-in defaults; the config file is a flat
``key = value`` text format using the long option names with underscores.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .errors import BellboundError

# Each command imports the library modules it uses in its own body, so that
# --version, --help and usage errors load no numpy and every subcommand loads
# only what it needs.

SWEEP_HEADER = ["theta_deg", "K_hat", "P_hat", "dK_hat", "dK_theory"]
SURFACE_HEADER = ["theta_deg", "theta_prime_deg", "dK2", "dKp2", "sum", "bound"]

# Defaults sized so a noisy point collects ~1e4 coincidences (22 s per point).
DEFAULT_PAIR_RATE = 455.0
DEFAULT_DURATION = 22.0

# Reference measured Bell factors for the two Werner settings this tool reproduces.
REFERENCE_MEASUREMENTS = {0.82: (2.36, 0.02), 0.45: (1.32, 0.02)}

# Largest number of points of one angle-grid axis, and of rows of a surface.
MAX_GRID_POINTS = 1_000_000
# CSV rows formatted and written at a time; a surface writes one theta's rows.
CSV_BLOCK_ROWS = 1024


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_signal(text: str) -> str:
    if text not in ("hv", "xy"):
        raise ValueError(f"expected hv or xy, got {text!r}")
    return text


def _schedule_values(text: str) -> list[float]:
    values = [float(part) for part in text.split(",")]
    if len(values) != 3:
        raise ValueError(f"expected 3 comma-separated values, got {text!r}")
    return values


def _parse_schedule(text: str) -> str:
    """Checks that ``text`` holds three comma-separated numbers and returns it
    as given, so that the manifest records the text."""
    _schedule_values(text)
    return text


def _angle_grid(axis: str, step: float) -> dict:
    return {
        f"{axis}_start": (float, 0.0, f"first {axis} angle in degrees"),
        f"{axis}_stop": (float, 90.0, f"last {axis} angle in degrees"),
        f"{axis}_step": (float, step, f"{axis} grid step in degrees"),
    }


_WERNER_P = {"p": (float, 0.82, "Werner parameter")}
_NOISE = {"noise": (_parse_bool, False, "simulate shot noise")}
_EXPERIMENT = {
    "pair_rate": (float, DEFAULT_PAIR_RATE, "photon-pair rate in 1/s"),
    "duration": (float, DEFAULT_DURATION, "measurement seconds per analyzer setting"),
    "dark_rate": (float, 0.0, "dark coincidence rate in 1/s"),
    "seed": (int, 0, "RNG seed"),
}

# Each subcommand's summary and parameters, (caster, default, help) by config
# key, in the order of the manifest and of replay_argv.  Every flag, config
# value and replay_argv entry is derived from this table.
COMMANDS = {
    "analyze": ("Bloch form, canonical diagonal, B_max", {}),
    "sweep": ("1-D knowledge-excess sweep CSV", {
        **_WERNER_P,
        **_angle_grid("theta", 1.0),
        "signal": (_parse_signal, "hv", "signal measurement: hv or xy"),
        **_NOISE,
        **_EXPERIMENT,
    }),
    "surface": ("(theta, theta') excess-sum surface CSV", {
        **_WERNER_P,
        **_angle_grid("theta", 1.0),
        **_angle_grid("theta_prime", 1.0),
        **_NOISE,
        **_EXPERIMENT,
    }),
    "simulate": ("full experiment simulation JSON", {
        **_WERNER_P,
        **_angle_grid("theta", 5.0),
        "visibility": (float, None, "interference visibility of a mixing schedule"),
        "schedule_durations": (
            _parse_schedule, None, "schedule durations in s: interferometric,HH,VV"
        ),
        "schedule_rates": (
            _parse_schedule, None, "schedule coincidence rates in 1/s: interferometric,HH,VV"
        ),
        **_EXPERIMENT,
    }),
    "verify": ("fuzz the excess-sum bounds", {
        "trials": (int, 10_000, "number of random instances"),
        "seed": (int, 1, "RNG seed"),
    }),
    "filter": ("local-filtering normal form JSON", {
        "tol": (float, 1e-10, "convergence tolerance of the reduced states"),
        "max_iter": (int, 10_000, "most filtering iterations"),
    }),
}
# The subcommands that read a state file, named by a positional argument.
STATE_FILE_COMMANDS = ("analyze", "filter")
# A config file may serve several subcommands, so a key that any of them
# takes is accepted by all; any other key is an error.
CONFIG_KEYS = frozenset(key for _, params in COMMANDS.values() for key in params)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(
                f"{path}:{lineno}: config key {key!r} is not a parameter of any subcommand"
            )
        if key in lines:
            raise ValueError(f"{path}: config key {key!r} is set on lines {lines[key]} and {lineno}")
        values[key], lines[key] = value.strip(), lineno
    return values


def _resolve(ns: argparse.Namespace) -> dict:
    """Merge flags > config file > defaults for the parameters of the command;
    flag text and config text are cast by the same caster."""
    config = _load_config_file(ns.config) if ns.config else {}
    resolved = {}
    for key, (caster, default, _) in COMMANDS[ns.command][1].items():
        if getattr(ns, key) is not None:
            text, source = getattr(ns, key), f"flag {_flag(key)}"
        elif key in config:
            text, source = config[key], f"config key {key!r}"
        else:
            resolved[key] = default
            continue
        try:
            resolved[key] = caster(text)
        except ValueError as exc:
            raise ValueError(f"{source} is malformed: {exc}") from exc
    return resolved


def _emit(ns: argparse.Namespace, clock, params: dict, chunks, **counts) -> None:
    """Write each of the text ``chunks`` as it is rendered, the run's ``render``
    stage, to standard output, or to --out with its run manifest, whose stats
    are the stage times of ``clock`` followed by the work ``counts``."""
    if ns.out is None:
        sys.stdout.writelines(chunks)
        return
    from .io import manifest_path, write_json

    ns.out.parent.mkdir(parents=True, exist_ok=True)
    with open(ns.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)
    clock.mark("render")
    parameters = dict(params)
    replay_argv = _replay_argv(ns.command, params)
    if ns.command in STATE_FILE_COMMANDS:
        parameters["state_file"] = str(ns.state_file)
        replay_argv.insert(1, str(ns.state_file))
    # Re-running replay_argv regenerates the output byte for byte.
    manifest = {
        "command": ns.command,
        "version": __version__,
        "seed": params.get("seed"),
        "parameters": parameters,
        "outputs": [str(ns.out)],
        "replay_argv": replay_argv + ["--out", str(ns.out)],
        "duration_s": sum(clock.stages.values()),
        "stats": {**clock.stages, **counts},
    }
    write_json(manifest_path(ns.out), manifest)


def _grid(params: dict, axis: str) -> list[float]:
    """The angle grid of ``axis`` (``theta`` or ``theta_prime``) from its
    ``_start``, ``_stop`` and ``_step`` parameters."""
    start, stop, step = (params[f"{axis}_{part}"] for part in ("start", "stop", "step"))
    for part, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{axis}_{part} must be a finite number, got {value}")
    if step <= 0:
        raise ValueError(f"{axis}_step must be positive, got {step}")
    # counted before the list is built; the loop below may end one point off
    count = (stop + 1e-9 - start) / step + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(
            f"the {axis} grid would have about {count:.4g} points; at most"
            f" {MAX_GRID_POINTS} are allowed per axis"
        )
    values = []
    for k in range(int(count) + 2):
        value = start + k * step
        if value > stop + 1e-9:
            break
        values.append(round(value, 10))
    if not values:
        raise ValueError(f"empty angle grid: start={start} stop={stop} step={step}")
    # a grid still short of stop two points past count, or one with a
    # repeated point, has a step that does not move its points at their
    # magnitude (or at the 10 decimals they are rounded to)
    if len(values) > int(count) + 1 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(
            f"{_flag(axis + '_step')} {step:g} does not advance the {axis} grid from"
            f" {_flag(axis + '_start')} {start:g}: its points repeat"
        )
    return values


def _replay_argv(command: str, params: dict) -> list[str]:
    from .io import format_float

    argv = [command]
    for key, value in params.items():
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                argv.append(_flag(key))
        else:
            argv += [_flag(key), format_float(value) if isinstance(value, float) else str(value)]
    return argv


def _experiment_config(params: dict):
    from .expsim import ExperimentConfig

    return ExperimentConfig(
        pair_rate=params["pair_rate"],
        duration=params["duration"],
        dark_coincidence_rate=params["dark_rate"],
        seed=params["seed"],
    )


def cmd_analyze(ns: argparse.Namespace) -> int:
    from .canonical import canonical_form
    from .core import QubitMeasurement, decompose
    from .io import StageClock, bloch_to_json, dumps_json, load_state
    from .knowledge import bell_max, distinguishability_excess

    clock = StageClock()
    params = _resolve(ns)
    state = load_state(ns.state_file)
    clock.mark("load")
    form = decompose(state)
    cf = canonical_form(state)
    pair = [QubitMeasurement(cf.o_signal[:, 0]), QubitMeasurement(cf.o_signal[:, 1])]
    report = {
        "bloch": bloch_to_json(form),
        "canonical_diag": cf.diag.tolist(),
        "b_max": bell_max(state),
        "delta_d_canonical_pair": [distinguishability_excess(state, pi) for pi in pair],
    }
    clock.mark("compute")
    _emit(ns, clock, params, (dumps_json(report),))
    return 0


def cmd_sweep(ns: argparse.Namespace) -> int:
    from .expsim import run_sweep_experiment
    from .io import StageClock

    clock = StageClock()
    params = _resolve(ns)
    angles = [(theta, params["signal"]) for theta in _grid(params, "theta")]
    # validated with or without noise
    config = _experiment_config(params)
    clock.mark("load")
    points = run_sweep_experiment(params["p"], angles, config if params["noise"] else None)
    rows = [
        (point.theta_deg, point.k_hat, point.p_hat, point.dk_hat, point.dk_theory)
        for point in points
    ]
    clock.mark("compute")
    _emit(ns, clock, params, _csv_chunks(SWEEP_HEADER, rows), points=len(points))
    return 0


def _csv_chunks(header, rows: list):
    """The CSV text of ``rows`` of numbers in the chunks that are written: the
    ``header`` line, then the rows ``CSV_BLOCK_ROWS`` at a time."""
    from .io import format_float

    yield ",".join(header) + "\n"
    for start in range(0, len(rows), CSV_BLOCK_ROWS):
        block = rows[start : start + CSV_BLOCK_ROWS]
        yield "".join([",".join(map(format_float, row)) + "\n" for row in block])


def _surface_blocks(thetas, theta_primes, dk2, dkp2, bound: str):
    """The surface CSV in the chunks that are written: the header line, then
    the rows of each theta as one block.

    Only the sum differs from row to row, so one template of the theta'
    rows, with ``%.17g`` (``format_float``'s format) for the sum, is filled
    in per theta: first with theta's two cells, then with its row of sums.
    """
    from .io import format_float

    template = "".join(
        f"%(theta)s,{format_float(theta_prime)},%(dk2)s,{format_float(b)},%%.17g,{bound}\n"
        for theta_prime, b in zip(theta_primes, dkp2)
    )
    yield ",".join(SURFACE_HEADER) + "\n"
    for theta, a in zip(thetas, dk2):
        cells = {"theta": format_float(theta), "dk2": format_float(a)}
        yield (template % cells) % tuple([a + b for b in dkp2])


def cmd_surface(ns: argparse.Namespace) -> int:
    from .expsim import run_sweep_experiment
    from .factories import werner
    from .io import StageClock, format_float
    from .knowledge import bell_max

    clock = StageClock()
    params = _resolve(ns)
    thetas = _grid(params, "theta")
    theta_primes = _grid(params, "theta_prime")
    rows = len(thetas) * len(theta_primes)
    if rows > MAX_GRID_POINTS:
        raise ValueError(
            f"the surface would have {len(thetas)} x {len(theta_primes)} = {rows} rows; at most"
            f" {MAX_GRID_POINTS} are allowed: widen --theta-step or --theta-prime-step"
        )
    bound = format_float((bell_max(werner(params["p"])) / 2.0) ** 2)
    # validated with or without noise
    config = _experiment_config(params)
    clock.mark("load")
    # The two 1-D excess profiles are computed once per axis and combined
    # (each analyzer setting is measured once, as in the real sweep); the
    # points of theta draw the even streams, those of theta' the odd ones.
    angles = [(theta, "hv") for theta in thetas] + [(theta, "xy") for theta in theta_primes]
    streams = [2 * i for i in range(len(thetas))] + [2 * j + 1 for j in range(len(theta_primes))]
    points = run_sweep_experiment(params["p"], angles, config if params["noise"] else None, streams)
    dk2 = [point.dk_hat * point.dk_hat for point in points[: len(thetas)]]
    dkp2 = [point.dk_hat * point.dk_hat for point in points[len(thetas):]]
    chunks = _surface_blocks(thetas, theta_primes, dk2, dkp2, bound)
    clock.mark("compute")
    _emit(ns, clock, params, chunks, points=len(points))
    return 0


def _resolve_simulated_state(params) -> tuple[float, dict | None]:
    """Werner parameter for the run, either direct or derived from a schedule."""
    schedule_keys = ("visibility", "schedule_durations", "schedule_rates")
    given = [key for key in schedule_keys if params[key] is not None]
    if not given:
        return params["p"], None
    if len(given) != len(schedule_keys):
        flags = ", ".join(map(_flag, schedule_keys))
        raise ValueError(f"schedule preparation needs all of {flags}")
    import numpy as np

    from .core import decompose
    from .expsim import mixed_state_from_model, mixing_model_from_schedule

    model = mixing_model_from_schedule(
        params["visibility"],
        _schedule_values(params["schedule_durations"]),
        _schedule_values(params["schedule_rates"]),
    )
    state = mixed_state_from_model(model)
    form = decompose(state)
    p = -float(form.T[0, 0])
    deviation = max(
        float(np.max(np.abs(form.T + p * np.eye(3)))),
        float(np.max(np.abs(form.n))),
        float(np.max(np.abs(form.m))),
    )
    if deviation > 1e-9:
        raise ValueError(
            f"schedule does not prepare a Werner state (deviation {deviation:.3e});"
            " adjust durations/rates so the HH and VV weights match the"
            " distinguishable-photon weight"
        )
    return p, {**model._asdict(), "derived_p": p}


def cmd_simulate(ns: argparse.Namespace) -> int:
    from .expsim import (
        BELL_ANGLE_PAIRS,
        BELL_STREAM_OFFSET,
        bell_estimate_stderr,
        estimate_bell_max,
        estimate_correlation,
        run_sweep_experiment,
        simulate_bell_records,
    )
    from .factories import werner, werner_prediction
    from .io import StageClock, dumps_json

    clock = StageClock()
    params = _resolve(ns)
    p, model_doc = _resolve_simulated_state(params)
    thetas = _grid(params, "theta")
    config = _experiment_config(params)
    angles = [(theta, "hv") for theta in thetas] + [(theta, "xy") for theta in thetas]
    if len(angles) > BELL_STREAM_OFFSET:
        raise ValueError(
            f"{len(thetas)} angles give {len(angles)} sweep points, whose RNG streams would"
            f" reach the Bell records' streams from {BELL_STREAM_OFFSET}; use at most"
            f" {BELL_STREAM_OFFSET // 2} angles"
        )
    clock.mark("load")
    points = run_sweep_experiment(p, angles, config)
    records = simulate_bell_records(werner(p), config)
    b_hat = estimate_bell_max(records)
    stderr = bell_estimate_stderr(records)
    theory = werner_prediction(p, 0.0, 0.0).b_max
    report = {
        "p": p,
        "config": config._asdict(),
        # each point's fields in order, its counts as c_pp, c_pm, c_mp, c_mm
        "sweep": [{**point._asdict(), "counts": point.counts._asdict()} for point in points],
        "bell": {
            "angle_pairs": [list(pair) for pair in BELL_ANGLE_PAIRS],
            "correlations": [estimate_correlation(record) for record in records],
            "b_max_hat": b_hat,
            "b_max_stderr": stderr,
            "b_max_theory": theory,
        },
    }
    if model_doc is not None:
        report["mixing_model"] = model_doc
    for reference_p, (value, uncertainty) in REFERENCE_MEASUREMENTS.items():
        if abs(p - reference_p) < 0.005:
            report["bell"]["reference_measured"] = {"value": value, "uncertainty": uncertainty}
            print(
                f"estimated B_max = {b_hat:.4f} +/- {stderr:.4f}; "
                f"reference measurement at p~{reference_p}: {value} +/- {uncertainty}",
                file=sys.stderr,
            )
    clock.mark("compute")
    _emit(ns, clock, params, (dumps_json(report),), points=len(points) + len(records))
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    from .io import StageClock, bound_check_to_json, dumps_json, read_json, write_json
    from .verify import SLACK_FLOOR, evaluate_instance_json, fuzz_bounds, instance_to_json

    clock = StageClock()
    params = _resolve(ns)
    if ns.replay is not None:
        # a replay reports one dumped instance on standard output
        given = [key for key in ("out", "trials", "seed", "dump") if getattr(ns, key) is not None]
        if given:
            raise ValueError(f"--replay cannot be combined with {', '.join(map(_flag, given))}")
        check, same = evaluate_instance_json(read_json(ns.replay, "replay file"))
        report = {
            "replayed": str(ns.replay),
            "check": bound_check_to_json(check),
            "same_meter_check": bound_check_to_json(same),
        }
        sys.stdout.write(dumps_json(report))
        return 0 if check.slack >= SLACK_FLOOR and same.slack >= SLACK_FLOOR else 2
    clock.mark("load")
    summary = fuzz_bounds(params["trials"], params["seed"])
    clock.mark("compute")
    compute_s = clock.stages["compute_s"]
    report = {
        "trials": summary.trials,
        "seed": summary.seed,
        "min_slack": summary.min_slack,
        "worst_trial": summary.worst.trial,
        "min_same_meter_slack": summary.min_same_meter_slack,
        "worst_same_meter_trial": summary.worst_same_meter.trial,
        "passed": summary.passed,
    }
    _emit(
        ns, clock, params, (dumps_json(report),),
        draw_s=summary.draw_s,
        screen_s=summary.screen_s,
        # null when the clock did not tick during the run
        instances_per_s=summary.trials / compute_s if compute_s > 0 else None,
    )
    if not summary.passed:
        worst = (
            summary.worst
            if summary.min_slack <= summary.min_same_meter_slack
            else summary.worst_same_meter
        )
        dump = ns.dump if ns.dump is not None else Path("bellbound_violation.json")
        write_json(dump, instance_to_json(worst))
        print(f"bound violation found; offending instance dumped to {dump}", file=sys.stderr)
        return 2
    print(
        f"verified {summary.trials} instances: min slack {summary.min_slack:.3e}, "
        f"min same-meter slack {summary.min_same_meter_slack:.3e}",
        file=sys.stderr,
    )
    return 0


def cmd_filter(ns: argparse.Namespace) -> int:
    from .canonical import filter_normal_form
    from .io import StageClock, bound_check_to_json, dumps_json, filter_result_to_json, load_state
    from .knowledge import optimize_excess_sum

    clock = StageClock()
    params = _resolve(ns)
    state = load_state(ns.state_file)
    clock.mark("load")
    result = filter_normal_form(state, tol=params["tol"], max_iter=params["max_iter"])
    optimum = optimize_excess_sum(result.state_out)
    report = dict(filter_result_to_json(result))
    report["post_filter_check"] = bound_check_to_json(optimum.check)
    clock.mark("compute")
    print(
        f"b_max_in = {result.b_max_in:.6f}, b_max_out = {result.b_max_out:.6f}, "
        f"post-filter slack = {optimum.check.slack:.3e}",
        file=sys.stderr,
    )
    _emit(
        ns, clock, params, (dumps_json(report),),
        filter_iterations=result.iterations,
        deviation_log=list(result.deviation_log),
        optimizer_path=optimum.path,
        optimizer_evaluations=optimum.evaluations,
    )
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so that it exits 1 with one line
    and exit 2 stays a verified-property violation."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of ``argv``: every subcommand is registered with its
    summary, but only the one that ``argv`` names, its first non-option
    argument, gets its arguments and flags (every subcommand does when
    ``argv`` is None).  ``--help``, ``<command> --help`` and the usage
    errors read as with all of them built, and a run builds the flags of
    one subcommand only."""
    parser = _Parser(
        prog="bellbound",
        description="Knowledge excesses of complementary qubit measurements, "
        "their Bell-factor bound, and a coincidence-counting experiment simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    named = None if argv is None else next((a for a in argv if not a.startswith("-")), "")
    for command, (summary, params) in COMMANDS.items():
        built = named in (None, command)
        p_command = sub.add_parser(command, help=summary, add_help=built)
        p_command.set_defaults(func=globals()[f"cmd_{command}"])
        if not built:
            continue
        if command in STATE_FILE_COMMANDS:
            p_command.add_argument("state_file", type=Path, help="JSON state file")
        # flags take text; _resolve casts it as it casts config values
        for key, (caster, _, help_text) in params.items():
            switch = {"action": "store_const", "const": "true"} if caster is _parse_bool else {}
            p_command.add_argument(_flag(key), help=help_text, **switch)
        if command == "verify":
            p_command.add_argument("--replay", type=Path, help="re-evaluate a dumped instance")
            p_command.add_argument("--dump", type=Path, help="violation dump path")
        p_command.add_argument("--out", type=Path, help="output file (default: stdout)")
        p_command.add_argument("--config", type=Path, help="flat key=value config file")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser(argv).parse_args(argv)
        return ns.func(ns)
    except (BellboundError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
