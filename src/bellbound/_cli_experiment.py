"""The handlers of ``sweep``, ``surface`` and ``simulate``, the Werner-state
experiment, with their angle grids and CSV rendering; :func:`bellbound.cli.main`
imports this module once it has parsed one of these commands."""

from __future__ import annotations

import argparse
import math
import sys

from .cli import _EXPERIMENT, _emit, _flag, _import_stage, _schedule_values

SWEEP_HEADER = ["theta_deg", "K_hat", "P_hat", "dK_hat", "dK_theory"]
SURFACE_HEADER = ["theta_deg", "theta_prime_deg", "dK2", "dKp2", "sum", "bound"]

# Reference measured Bell factors for the two Werner settings this tool reproduces.
REFERENCE_MEASUREMENTS = {0.82: (2.36, 0.02), 0.45: (1.32, 0.02)}

# Largest number of points of one angle-grid axis, and of rows of a surface.
MAX_GRID_POINTS = 1_000_000
# CSV rows formatted and written at a time; a surface writes one theta's rows.
CSV_BLOCK_ROWS = 1024


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


def _experiment_config(params: dict):
    from .expsim import ExperimentConfig

    # the parameters of _EXPERIMENT are ExperimentConfig's fields, in order
    return ExperimentConfig(*(params[key] for key in _EXPERIMENT))


def cmd_sweep(ns: argparse.Namespace, clock, params: dict) -> None:
    from .expsim import run_sweep_experiment

    angles = [(theta, params["signal"]) for theta in _grid(params, "theta")]
    # validated with or without noise
    config = _experiment_config(params)
    # the exact points are computed by knowledge
    _import_stage(clock, params["noise"], *(() if params["noise"] else ("knowledge",)))
    points = run_sweep_experiment(params["p"], angles, config if params["noise"] else None)
    rows = [
        (point.theta_deg, point.k_hat, point.p_hat, point.dk_hat, point.dk_theory)
        for point in points
    ]
    clock.mark("compute")
    _emit(ns, clock, params, _csv_chunks(SWEEP_HEADER, rows), points=len(points))


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


def cmd_surface(ns: argparse.Namespace, clock, params: dict) -> None:
    from .expsim import run_sweep_experiment
    from .factories import werner
    from .io import format_float
    from .knowledge import bell_max

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
    _import_stage(clock, params["noise"])
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

    from ._mixing import mixed_state_from_model, mixing_model_from_schedule
    from .core import decompose

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


def cmd_simulate(ns: argparse.Namespace, clock, params: dict) -> None:
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
    from .io import dumps_json

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
    _import_stage(clock, True)
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
