"""The benchmark's workloads: which operations each one runs, from its seed.

An operation is the unit run.py times: one ``verify`` process on ``fuzz``,
one round of four CLI processes on ``experiment``, and one process of the
library script on the whole state corpus on ``optimize``.  The same seed
yields the same sequence of operations.  This module imports nothing from
``bellbound``, so run.py's own process stays light; the in-process runner
imports it as well.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass

WORKLOADS = ("fuzz", "experiment", "optimize")

# CLI --seed values are drawn from this pool so every seeded data file has a
# recorded reference digest (see record_references.py).
SEED_POOL = tuple(range(1, 17))

FUZZ_TRIALS = 2000

# The optimize workload runs a fixed corpus, random_state(seed, rank) for
# seeds 0..7 of each rank 1..4, in a seeded order; one operation is the whole
# corpus in one process.  Per-state optimizer time is heavy tailed
# (coefficient of variation about 1), so operations on fresh states would
# differ by 10-20% in cost and their times could not be compared.
STATE_SEEDS = tuple(range(8))

# Angle grids of the experiment round.  Points per grid: 0..90 degrees.
SIMULATE_STEP = "0.2"
SWEEP_STEP = "0.1"
SURFACE_STEP = "0.5"


def grid_points(step: str) -> int:
    """Number of points on the CLI's default 0..90 degree grid."""
    return round(90 / float(step)) + 1


@dataclass(frozen=True)
class Step:
    """One invocation: ``cli`` runs ``bellbound <args> --out <out>``;
    ``optimize`` runs the library script on ``args`` (``seed:rank`` specs)."""

    kind: str
    args: tuple[str, ...]
    out: str | None
    items: int

    @property
    def key(self) -> str:
        """Reference key: the argv without the output path."""
        return " ".join(self.args)


SURFACE_GRID = ("--theta-step", SURFACE_STEP, "--theta-prime-step", SURFACE_STEP)


def verify_step(seed: int) -> Step:
    args = ("verify", "--trials", str(FUZZ_TRIALS), "--seed", str(seed))
    return Step("cli", args, "verify.json", FUZZ_TRIALS)


def simulate_step(seed: int) -> Step:
    args = ("simulate", "--seed", str(seed), "--theta-step", SIMULATE_STEP)
    return Step("cli", args, "simulate.json", 2 * grid_points(SIMULATE_STEP) + 4)


def sweep_step(seed: int, signal: str) -> Step:
    args = ("sweep", "--noise", "--seed", str(seed), "--signal", signal,
            "--theta-step", SWEEP_STEP)
    return Step("cli", args, "sweep.csv", grid_points(SWEEP_STEP))


def surface_step(seed: int | None) -> Step:
    """Noisy surface for a seed; the noise-free surface for None."""
    noise = () if seed is None else ("--noise", "--seed", str(seed))
    out = "surface.csv" if seed is None else "surface_noise.csv"
    return Step("cli", ("surface", *noise, *SURFACE_GRID), out, 2 * grid_points(SURFACE_STEP))


def seeded_cli_steps():
    """Every CLI step the workloads can produce; references.json covers them all."""
    yield surface_step(None)
    for seed in SEED_POOL:
        yield verify_step(seed)
        yield simulate_step(seed)
        yield from (sweep_step(seed, signal) for signal in ("hv", "xy"))
        yield surface_step(seed)


def _fuzz(rng: random.Random):
    while True:
        yield [verify_step(rng.choice(SEED_POOL))]


def _experiment(rng: random.Random):
    while True:
        sim, sweep, surface = (rng.choice(SEED_POOL) for _ in range(3))
        signal = rng.choice(("hv", "xy"))
        yield [simulate_step(sim), sweep_step(sweep, signal), surface_step(surface),
               surface_step(None)]


def _optimize(rng: random.Random):
    specs = [f"{seed}:{rank}" for rank in range(1, 5) for seed in STATE_SEEDS]
    while True:
        rng.shuffle(specs)
        yield [Step("optimize", tuple(specs), None, len(specs))]


_GENERATORS = {"fuzz": _fuzz, "experiment": _experiment, "optimize": _optimize}


def operations(workload: str, seed: int):
    """Endless, seed-determined sequence of operations (lists of steps)."""
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"))


def another_operation(elapsed: float, seconds: float, op_walls: list[float]) -> bool:
    """Whether to start another operation: the first always; a later one when
    the run then ends nearer to ``seconds`` than it would without it."""
    return not op_walls or elapsed + statistics.median(op_walls) / 2 < seconds


def parse_state_spec(spec: str) -> tuple[int, int]:
    seed, rank = spec.split(":")
    return int(seed), int(rank)
