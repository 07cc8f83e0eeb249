"""Command-line front end: analyze, sweep, surface, simulate, verify, filter.

Exit codes: 0 success, 1 input/validation error, 2 verified-property
violation.  Data goes to --out (with a sibling run manifest) or to standard
output; diagnostics go to standard error.  Parameter precedence is CLI flags
over config file over built-in defaults; the config file is a flat
``key = value`` text format using the long option names with underscores.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .canonical import canonical_form, filter_normal_form
from .core import QubitMeasurement, decompose, measurement_from_polarization_angle
from .errors import BellboundError
from .expsim import (
    BELL_ANGLE_PAIRS,
    BELL_STREAM_OFFSET,
    ExperimentConfig,
    _polarization_axes,
    _simulate_stack,
    bell_estimate_stderr,
    estimate_apriori,
    estimate_bell_max,
    estimate_correlation,
    estimate_knowledge,
    mixed_state_from_model,
    mixing_model_from_schedule,
    run_sweep_experiment,
    signal_measurement,
    simulate_bell_records,
)
from .factories import werner, werner_prediction
from .io import (
    RunManifest,
    Stopwatch,
    bloch_to_json,
    bound_check_to_json,
    dumps_json,
    filter_result_to_json,
    format_float,
    load_state,
    write_json,
    write_manifest,
)
from .knowledge import (
    _apriori,
    _bell_max,
    _knowledge,
    bell_max,
    distinguishability_excess,
    optimize_excess_sum,
)
from .verify import SLACK_FLOOR, evaluate_instance_json, fuzz_bounds, instance_to_json

SWEEP_HEADER = ["theta_deg", "K_hat", "P_hat", "dK_hat", "dK_theory"]
SURFACE_HEADER = ["theta_deg", "theta_prime_deg", "dK2", "dKp2", "sum", "bound"]

# Defaults sized so a noisy point collects ~1e4 coincidences (22 s per point).
DEFAULT_PAIR_RATE = 455.0
DEFAULT_DURATION = 22.0

# Reference measured Bell factors for the two Werner settings this tool reproduces.
REFERENCE_MEASUREMENTS = {0.82: (2.36, 0.02), 0.45: (1.32, 0.02)}


def _load_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _resolve(ns: argparse.Namespace, param_spec: dict[str, tuple]) -> dict:
    """Merge flags > config file > defaults for the keys in ``param_spec``."""
    config = _load_config_file(ns.config) if ns.config else {}
    resolved = {}
    for key, (caster, default) in param_spec.items():
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            try:
                resolved[key] = caster(config[key])
            except ValueError as exc:
                raise ValueError(f"config key {key!r} is malformed: {exc}") from exc
        else:
            resolved[key] = default
    return resolved


def _emit(ns: argparse.Namespace, text: str, manifest: RunManifest) -> None:
    if ns.out is None:
        sys.stdout.write(text)
        return
    ns.out.parent.mkdir(parents=True, exist_ok=True)
    ns.out.write_text(text, encoding="utf-8", newline="\n")
    manifest.outputs = [str(ns.out)]
    manifest.replay_argv += ["--out", str(ns.out)]
    write_manifest(ns.out, manifest)


def _grid(start: float, stop: float, step: float) -> list[float]:
    if step <= 0:
        raise ValueError(f"grid step must be positive, got {step}")
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 1e-9:
            break
        values.append(round(value, 10))
        k += 1
    if not values:
        raise ValueError(f"empty angle grid: start={start} stop={stop} step={step}")
    return values


def _replay_argv(command: str, params: dict, skip=()) -> list[str]:
    argv = [command]
    for key, value in params.items():
        if key in skip or value is None:
            continue
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        else:
            argv += [flag, format_float(value) if isinstance(value, float) else str(value)]
    return argv


def cmd_analyze(ns: argparse.Namespace) -> int:
    watch = Stopwatch()
    state = load_state(ns.state_file)
    form = decompose(state)
    cf = canonical_form(state)
    pair = [QubitMeasurement(cf.o_signal[:, 0]), QubitMeasurement(cf.o_signal[:, 1])]
    report = {
        "bloch": bloch_to_json(form),
        "canonical_diag": cf.diag.tolist(),
        "b_max": bell_max(state),
        "delta_d_canonical_pair": [distinguishability_excess(state, pi) for pi in pair],
    }
    text = dumps_json(report)
    manifest = RunManifest(
        command="analyze",
        parameters={"state_file": str(ns.state_file)},
        seed=None,
        outputs=[],
        replay_argv=["analyze", str(ns.state_file)],
        duration_s=watch.elapsed(),
    )
    _emit(ns, text, manifest)
    return 0


def _noise_params() -> dict[str, tuple]:
    return {
        "pair_rate": (float, DEFAULT_PAIR_RATE),
        "duration": (float, DEFAULT_DURATION),
        "dark_rate": (float, 0.0),
        "seed": (int, 0),
    }


def cmd_sweep(ns: argparse.Namespace) -> int:
    watch = Stopwatch()
    param_spec = {
        "p": (float, 0.82),
        "theta_start": (float, 0.0),
        "theta_stop": (float, 90.0),
        "theta_step": (float, 1.0),
        "signal": (str, "hv"),
        "noise": (_parse_bool, False),
        **_noise_params(),
    }
    params = _resolve(ns, param_spec)
    thetas = _grid(params["theta_start"], params["theta_stop"], params["theta_step"])
    rows = []
    if params["noise"]:
        config = ExperimentConfig(
            pair_rate=params["pair_rate"],
            duration=params["duration"],
            dark_coincidence_rate=params["dark_rate"],
            seed=params["seed"],
        )
        points = run_sweep_experiment(
            params["p"],
            [(theta, params["signal"]) for theta in thetas],
            config,
        )
        for point in points:
            rows.append(
                (point.theta_deg, point.k_hat, point.p_hat, point.dk_hat, point.dk_theory)
            )
    else:
        form = decompose(werner(params["p"]))
        s = signal_measurement(params["signal"]).axis
        p_hat = _apriori(form, s)
        for theta in thetas:
            k = _knowledge(form, measurement_from_polarization_angle(theta).axis, s)
            prediction = werner_prediction(params["p"], theta, theta)
            theory = prediction.K if params["signal"] == "hv" else prediction.K_prime
            rows.append((float(theta), k, p_hat, k - p_hat, theory))
    text, stats = _render(_csv_text, SWEEP_HEADER, rows, points=len(thetas))
    manifest = RunManifest(
        command="sweep",
        parameters=params,
        seed=params["seed"],
        outputs=[],
        replay_argv=_replay_argv("sweep", params),
        duration_s=watch.elapsed(),
        stats=stats,
    )
    _emit(ns, text, manifest)
    return 0


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _render(render, *args, points: int) -> tuple[str, dict]:
    """``render(*args)`` and the run stats: the number of analyzer settings
    evaluated and the seconds spent rendering."""
    watch = Stopwatch()
    text = render(*args)
    return text, {"points": points, "render_s": watch.elapsed()}


def cmd_surface(ns: argparse.Namespace) -> int:
    watch = Stopwatch()
    param_spec = {
        "p": (float, 0.82),
        "theta_start": (float, 0.0),
        "theta_stop": (float, 90.0),
        "theta_step": (float, 1.0),
        "theta_prime_start": (float, 0.0),
        "theta_prime_stop": (float, 90.0),
        "theta_prime_step": (float, 1.0),
        "noise": (_parse_bool, False),
        **_noise_params(),
    }
    params = _resolve(ns, param_spec)
    thetas = _grid(params["theta_start"], params["theta_stop"], params["theta_step"])
    theta_primes = _grid(
        params["theta_prime_start"], params["theta_prime_stop"], params["theta_prime_step"]
    )
    state = werner(params["p"])
    form = decompose(state)
    pi_hv = signal_measurement("hv").axis
    pi_xy = signal_measurement("xy").axis
    # The two 1-D excess profiles are computed once per axis and combined
    # (each analyzer setting is measured once, as in the real sweep).
    meters = _polarization_axes(thetas + theta_primes)
    signals = np.array([pi_hv] * len(thetas) + [pi_xy] * len(theta_primes))
    config = ExperimentConfig(
        pair_rate=params["pair_rate"],
        duration=params["duration"],
        dark_coincidence_rate=params["dark_rate"],
        seed=params["seed"],
    )
    if params["noise"]:
        streams = [2 * i for i in range(len(thetas))]
        streams += [2 * j + 1 for j in range(len(theta_primes))]
        records = _simulate_stack(state, meters, signals, config, streams)
        values = [estimate_knowledge(c) - estimate_apriori(c) for c in records]
    else:
        values = [_knowledge(form, m, s) - _apriori(form, s) for m, s in zip(meters, signals)]
    dk2 = [v * v for v in values[: len(thetas)]]
    dkp2 = [v * v for v in values[len(thetas):]]
    # Every column but the sum repeats along one axis, so each of its values
    # is formatted once and the strings pass through _csv_text as they are.
    bound = format_float((_bell_max(form) / 2.0) ** 2)
    left = [(format_float(t), format_float(v)) for t, v in zip(thetas, dk2)]
    right = [(format_float(t), format_float(v)) for t, v in zip(theta_primes, dkp2)]
    rows = [
        (theta, theta_prime, a_text, b_text, a + b, bound)
        for (theta, a_text), a in zip(left, dk2)
        for (theta_prime, b_text), b in zip(right, dkp2)
    ]
    text, stats = _render(_csv_text, SURFACE_HEADER, rows, points=len(values))
    manifest = RunManifest(
        command="surface",
        parameters=params,
        seed=params["seed"],
        outputs=[],
        replay_argv=_replay_argv("surface", params),
        duration_s=watch.elapsed(),
        stats=stats,
    )
    _emit(ns, text, manifest)
    return 0


def _parse_float_list(text: str, count: int) -> list[float]:
    values = [float(part) for part in str(text).split(",")]
    if len(values) != count:
        raise ValueError(f"expected {count} comma-separated values, got {text!r}")
    return values


def _resolve_simulated_state(params) -> tuple[float, dict | None]:
    """Werner parameter for the run, either direct or derived from a schedule."""
    schedule_keys = ("visibility", "schedule_durations", "schedule_rates")
    given = [key for key in schedule_keys if params[key] is not None]
    if not given:
        return params["p"], None
    if len(given) != len(schedule_keys):
        raise ValueError(
            "schedule preparation needs all of --visibility, --schedule-durations,"
            " --schedule-rates"
        )
    model = mixing_model_from_schedule(
        params["visibility"],
        _parse_float_list(params["schedule_durations"], 3),
        _parse_float_list(params["schedule_rates"], 3),
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
    model_doc = {
        "visibility": model.visibility,
        "w_singlet": model.w_singlet,
        "w_hh": model.w_hh,
        "w_vv": model.w_vv,
        "derived_p": p,
    }
    return p, model_doc


def cmd_simulate(ns: argparse.Namespace) -> int:
    watch = Stopwatch()
    param_spec = {
        "p": (float, 0.82),
        "theta_start": (float, 0.0),
        "theta_stop": (float, 90.0),
        "theta_step": (float, 5.0),
        "visibility": (float, None),
        "schedule_durations": (str, None),
        "schedule_rates": (str, None),
        **_noise_params(),
    }
    params = _resolve(ns, param_spec)
    p, model_doc = _resolve_simulated_state(params)
    thetas = _grid(params["theta_start"], params["theta_stop"], params["theta_step"])
    config = ExperimentConfig(
        pair_rate=params["pair_rate"],
        duration=params["duration"],
        dark_coincidence_rate=params["dark_rate"],
        seed=params["seed"],
    )
    angles = [(theta, "hv") for theta in thetas] + [(theta, "xy") for theta in thetas]
    if len(angles) > BELL_STREAM_OFFSET:
        raise ValueError(
            f"{len(thetas)} angles give {len(angles)} sweep points, whose RNG streams would"
            f" reach the Bell records' streams from {BELL_STREAM_OFFSET}; use at most"
            f" {BELL_STREAM_OFFSET // 2} angles"
        )
    points = run_sweep_experiment(p, angles, config)
    records = simulate_bell_records(werner(p), config)
    b_hat = estimate_bell_max(records)
    stderr = bell_estimate_stderr(records)
    theory = werner_prediction(p, 0.0, 0.0).b_max
    report = {
        "p": p,
        "config": {
            "pair_rate": config.pair_rate,
            "duration": config.duration,
            "dark_coincidence_rate": config.dark_coincidence_rate,
            "seed": config.seed,
        },
        "sweep": [
            {
                "theta_deg": point.theta_deg,
                "basis": point.basis,
                "counts": {
                    "c_pp": point.counts.c_pp,
                    "c_pm": point.counts.c_pm,
                    "c_mp": point.counts.c_mp,
                    "c_mm": point.counts.c_mm,
                },
                "k_hat": point.k_hat,
                "p_hat": point.p_hat,
                "dk_hat": point.dk_hat,
                "dk_theory": point.dk_theory,
            }
            for point in points
        ],
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
    text, stats = _render(dumps_json, report, points=len(points) + len(records))
    manifest = RunManifest(
        command="simulate",
        parameters=params,
        seed=params["seed"],
        outputs=[],
        replay_argv=_replay_argv("simulate", params),
        duration_s=watch.elapsed(),
        stats=stats,
    )
    _emit(ns, text, manifest)
    return 0


def cmd_verify(ns: argparse.Namespace) -> int:
    watch = Stopwatch()
    param_spec = {
        "trials": (int, 10_000),
        "seed": (int, 1),
    }
    params = _resolve(ns, param_spec)
    if ns.replay is not None:
        with open(ns.replay, encoding="utf-8") as handle:
            data = json.load(handle)
        check, same = evaluate_instance_json(data)
        report = {
            "replayed": str(ns.replay),
            "check": bound_check_to_json(check),
            "same_meter_check": bound_check_to_json(same),
        }
        sys.stdout.write(dumps_json(report))
        return 0 if check.slack >= SLACK_FLOOR and same.slack >= SLACK_FLOOR else 2
    if params["trials"] < 1:
        raise ValueError("trials must be >= 1")
    summary = fuzz_bounds(params["trials"], params["seed"])
    report = {
        "trials": summary.trials,
        "seed": summary.seed,
        "min_slack": summary.min_slack,
        "worst_trial": summary.worst.trial,
        "min_same_meter_slack": summary.min_same_meter_slack,
        "worst_same_meter_trial": summary.worst_same_meter.trial,
        "passed": summary.passed,
    }
    text = dumps_json(report)
    manifest = RunManifest(
        command="verify",
        parameters=params,
        seed=params["seed"],
        outputs=[],
        replay_argv=_replay_argv("verify", params),
        duration_s=watch.elapsed(),
    )
    _emit(ns, text, manifest)
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
    watch = Stopwatch()
    param_spec = {"tol": (float, 1e-10), "max_iter": (int, 10_000)}
    params = _resolve(ns, param_spec)
    state = load_state(ns.state_file)
    result = filter_normal_form(state, tol=params["tol"], max_iter=params["max_iter"])
    optimum = optimize_excess_sum(result.state_out)
    report = dict(filter_result_to_json(result))
    report["post_filter_check"] = bound_check_to_json(optimum.check)
    print(
        f"b_max_in = {result.b_max_in:.6f}, b_max_out = {result.b_max_out:.6f}, "
        f"post-filter slack = {optimum.check.slack:.3e}",
        file=sys.stderr,
    )
    text = dumps_json(report)
    manifest = RunManifest(
        command="filter",
        parameters={**params, "state_file": str(ns.state_file)},
        seed=None,
        outputs=[],
        replay_argv=["filter", str(ns.state_file)]
        + _replay_argv("filter", params)[1:],
        duration_s=watch.elapsed(),
        stats={"filter_iterations": result.iterations, "deviation_log": list(result.deviation_log)},
    )
    _emit(ns, text, manifest)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellbound",
        description="Knowledge excesses of complementary qubit measurements, "
        "their Bell-factor bound, and a coincidence-counting experiment simulator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--out", type=Path, default=None, help="output file (default: stdout)")
    common.add_argument("--config", type=Path, default=None, help="flat key=value config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=[common], help="Bloch form, canonical diagonal, B_max")
    p_analyze.add_argument("state_file", type=Path)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sweep = sub.add_parser("sweep", parents=[common], help="1-D knowledge-excess sweep CSV")
    p_sweep.add_argument("--p", type=float, default=None, help="Werner parameter")
    p_sweep.add_argument("--theta-start", type=float, default=None)
    p_sweep.add_argument("--theta-stop", type=float, default=None)
    p_sweep.add_argument("--theta-step", type=float, default=None)
    p_sweep.add_argument("--signal", choices=["hv", "xy"], default=None)
    p_sweep.add_argument("--noise", action="store_true", default=None, help="simulate shot noise")
    p_sweep.add_argument("--pair-rate", type=float, default=None)
    p_sweep.add_argument("--duration", type=float, default=None)
    p_sweep.add_argument("--dark-rate", type=float, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_surface = sub.add_parser("surface", parents=[common], help="(theta, theta') excess-sum surface CSV")
    p_surface.add_argument("--p", type=float, default=None)
    p_surface.add_argument("--theta-start", type=float, default=None)
    p_surface.add_argument("--theta-stop", type=float, default=None)
    p_surface.add_argument("--theta-step", type=float, default=None)
    p_surface.add_argument("--theta-prime-start", type=float, default=None)
    p_surface.add_argument("--theta-prime-stop", type=float, default=None)
    p_surface.add_argument("--theta-prime-step", type=float, default=None)
    p_surface.add_argument("--noise", action="store_true", default=None)
    p_surface.add_argument("--pair-rate", type=float, default=None)
    p_surface.add_argument("--duration", type=float, default=None)
    p_surface.add_argument("--dark-rate", type=float, default=None)
    p_surface.set_defaults(func=cmd_surface)

    p_simulate = sub.add_parser("simulate", parents=[common], help="full experiment simulation JSON")
    p_simulate.add_argument("--p", type=float, default=None)
    p_simulate.add_argument("--theta-start", type=float, default=None)
    p_simulate.add_argument("--theta-stop", type=float, default=None)
    p_simulate.add_argument("--theta-step", type=float, default=None)
    p_simulate.add_argument("--pair-rate", type=float, default=None)
    p_simulate.add_argument("--duration", type=float, default=None)
    p_simulate.add_argument("--dark-rate", type=float, default=None)
    p_simulate.add_argument(
        "--visibility", type=float, default=None,
        help="interference visibility of the mixing schedule (with --schedule-*)",
    )
    p_simulate.add_argument(
        "--schedule-durations", default=None,
        help="comma list: interferometric,HH,VV measurement durations in seconds",
    )
    p_simulate.add_argument(
        "--schedule-rates", default=None,
        help="comma list: per-configuration coincidence rates in 1/s",
    )
    p_simulate.set_defaults(func=cmd_simulate)

    p_verify = sub.add_parser("verify", parents=[common], help="fuzz the excess-sum bounds")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--replay", type=Path, default=None, help="re-evaluate a dumped instance")
    p_verify.add_argument("--dump", type=Path, default=None, help="violation dump path")
    p_verify.set_defaults(func=cmd_verify)

    p_filter = sub.add_parser("filter", parents=[common], help="local-filtering normal form JSON")
    p_filter.add_argument("state_file", type=Path)
    p_filter.add_argument("--tol", type=float, default=None)
    p_filter.add_argument("--max-iter", type=int, default=None)
    p_filter.set_defaults(func=cmd_filter)

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns)
    except BellboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
