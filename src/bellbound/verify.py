"""Fuzz verification of the knowledge-excess bounds on random instances.

Each trial owns a counter-based RNG stream keyed by (seed, trial index), so
summaries are reproducible bit for bit and any single trial can be rerun on
its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import QubitMeasurement, TwoQubitState, rotation_from_quaternion, validate_state
from .factories import _random_state_from_rng
from .knowledge import BoundCheck, check_bound, check_same_meter_bound

SLACK_FLOOR = -1e-9


@dataclass(frozen=True)
class FuzzInstance:
    """One random (state, measurement quadruple) draw and its bound checks."""

    trial: int
    state: TwoQubitState
    s_axis: np.ndarray
    s_prime_axis: np.ndarray
    m_axis: np.ndarray
    m_prime_axis: np.ndarray
    check: BoundCheck
    same_meter_check: BoundCheck


@dataclass(frozen=True)
class FuzzSummary:
    trials: int
    seed: int
    min_slack: float
    worst: FuzzInstance
    min_same_meter_slack: float
    worst_same_meter: FuzzInstance

    @property
    def passed(self) -> bool:
        return self.min_slack >= SLACK_FLOOR and self.min_same_meter_slack >= SLACK_FLOOR


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def run_trial(seed: int, trial: int) -> FuzzInstance:
    """One fuzz draw: random mixed state, random complementary signal pair,
    two random meter axes; checks both bounds."""
    key = np.array([int(seed) % 2**64, trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    ancilla_dim = int(rng.integers(1, 5))
    state = _random_state_from_rng(rng, ancilla_dim)
    frame = rotation_from_quaternion(_unit(rng.normal(size=4)))
    pi_s = QubitMeasurement(frame[:, 0])
    pi_s_prime = QubitMeasurement(frame[:, 1])
    pi_m = QubitMeasurement(_unit(rng.normal(size=3)))
    pi_m_prime = QubitMeasurement(_unit(rng.normal(size=3)))
    check = check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    same = check_same_meter_bound(state, pi_s, pi_s_prime, pi_m)
    return FuzzInstance(
        trial, state, pi_s.axis, pi_s_prime.axis, pi_m.axis, pi_m_prime.axis, check, same
    )


def fuzz_bounds(trials: int, seed: int) -> FuzzSummary:
    """Run ``trials`` independent draws and report the minimum slacks."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    instances = [run_trial(seed, i) for i in range(trials)]
    worst = min(instances, key=lambda inst: inst.check.slack)
    worst_same = min(instances, key=lambda inst: inst.same_meter_check.slack)
    return FuzzSummary(
        trials=trials,
        seed=seed,
        min_slack=worst.check.slack,
        worst=worst,
        min_same_meter_slack=worst_same.same_meter_check.slack,
        worst_same_meter=worst_same,
    )


def instance_to_json(instance: FuzzInstance) -> dict:
    from .io import bound_check_to_json, complex_matrix_to_json

    return {
        "trial": instance.trial,
        "matrix": complex_matrix_to_json(instance.state.matrix),
        "signal_axis": instance.s_axis.tolist(),
        "signal_axis_prime": instance.s_prime_axis.tolist(),
        "meter_axis": instance.m_axis.tolist(),
        "meter_axis_prime": instance.m_prime_axis.tolist(),
        "check": bound_check_to_json(instance.check),
        "same_meter_check": bound_check_to_json(instance.same_meter_check),
    }


def evaluate_instance_json(data: dict) -> tuple[BoundCheck, BoundCheck]:
    """Recompute both bound checks for a dumped instance (replay path)."""
    from .io import complex_matrix_from_json

    state = validate_state(complex_matrix_from_json(data["matrix"]))
    pi_s = QubitMeasurement(np.asarray(data["signal_axis"], dtype=float))
    pi_s_prime = QubitMeasurement(np.asarray(data["signal_axis_prime"], dtype=float))
    pi_m = QubitMeasurement(np.asarray(data["meter_axis"], dtype=float))
    pi_m_prime = QubitMeasurement(np.asarray(data["meter_axis_prime"], dtype=float))
    check = check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    same = check_same_meter_bound(state, pi_s, pi_s_prime, pi_m)
    return check, same
