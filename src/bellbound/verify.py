"""Fuzz verification of the knowledge-excess bounds on random instances.

Each trial owns a counter-based RNG stream keyed by (seed, trial index), so
summaries are reproducible bit for bit and any single trial can be rerun on
its own.  A trial reads its stream in two calls: one raw 64-bit word, which
sets the ancilla dimension d in 1..4, then one draw of 8d + 10 normals that
hold, in order, the real and the imaginary amplitudes of a pure state on
4 x d (its reduction is the trial's mixed state), the signal-frame
quaternion and the two meter directions.

``fuzz_bounds`` draws the trials in blocks.  Per trial it only resets the
stream and makes those two calls; it then builds the block's states as one
stack per ancilla dimension and screens the block with the stacked
Bloch-form kernel.  Finally it reruns the few trials whose screened slack
lies near the minimum on the scalar path (``run_trial``), and reports only
the scalar results.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .core import (
    QubitMeasurement,
    TwoQubitState,
    _correlation_stack,
    _Frozen,
    _set,
    _validate_stack,
    rotation_from_quaternion,
    validate_state,
)
from .factories import _density_matrix, _philox_streams
from .knowledge import BoundCheck, _bound_slacks, check_bound, check_same_meter_bound

SLACK_FLOOR = -1e-9
# Trials drawn and screened together; memory is O(BLOCK), not O(trials).
BLOCK = 1024
# A screened slack differs from the scalar one by about 1e-15 at most (the
# tests pin it below 1e-13).  Every trial whose screened slack lies within
# this margin of the screened minimum is rerun, so the scalar minimum is
# always among them.
SCREEN_MARGIN = 1e-12


class FuzzInstance(_Frozen):
    """One random (state, measurement quadruple) draw and its bound checks."""

    __slots__ = (
        "trial",
        "state",
        "s_axis",
        "s_prime_axis",
        "m_axis",
        "m_prime_axis",
        "check",
        "same_meter_check",
    )

    def __init__(
        self,
        trial: int,
        state: TwoQubitState,
        s_axis: np.ndarray,
        s_prime_axis: np.ndarray,
        m_axis: np.ndarray,
        m_prime_axis: np.ndarray,
        check: BoundCheck,
        same_meter_check: BoundCheck,
    ):
        _set(self, "trial", trial)
        _set(self, "state", state)
        _set(self, "s_axis", s_axis)
        _set(self, "s_prime_axis", s_prime_axis)
        _set(self, "m_axis", m_axis)
        _set(self, "m_prime_axis", m_prime_axis)
        _set(self, "check", check)
        _set(self, "same_meter_check", same_meter_check)


class FuzzSummary(NamedTuple):
    """The minimum slacks of a fuzz run and the scalar instances that reach
    them.  ``reruns`` counts the trials rerun on the scalar path;
    ``draw_s`` and ``screen_s`` are the seconds spent drawing and screening
    the blocks; ``screen_residual`` is the largest |screened - scalar|
    difference of a slack over the rerun trials."""

    trials: int
    seed: int
    min_slack: float
    worst: FuzzInstance
    min_same_meter_slack: float
    worst_same_meter: FuzzInstance
    reruns: int = 0
    draw_s: float = 0.0
    screen_s: float = 0.0
    screen_residual: float = 0.0

    @property
    def passed(self) -> bool:
        return self.min_slack >= SLACK_FLOOR and self.min_same_meter_slack >= SLACK_FLOOR


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _ancilla_dim(rng: np.random.Generator) -> int:
    """The ancilla dimension d in 1..4 from the stream's next raw 64-bit word.

    On a stream that holds no 32-bit half, as one just opened, this is the
    value of ``rng.integers(1, 5)``: that call takes the low 32 bits of the
    word and returns ``1 + ((4 * low) >> 32)`` (Lemire's multiply-shift,
    which never rejects for a range of 4).  Both consume that one word, so
    the 64-bit draws that follow, such as the normals, are the same; only a
    32-bit draw would differ, as ``integers`` keeps the word's high half for
    the next one.
    """
    return 1 + ((rng.bit_generator.random_raw() & 0xFFFFFFFF) >> 30)


def _draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One trial's draws in stream order: the unvalidated state, the
    signal-frame quaternion, then the two meter directions (none
    normalized).  The stream is read in two calls, the ancilla dimension d
    (:func:`_ancilla_dim`) and then all 8d + 10 normals."""
    d = _ancilla_dim(rng)
    normals = rng.normal(size=8 * d + 10)
    rho = _density_matrix(normals[: 8 * d].reshape(2, 4, d))
    return rho, normals[-10:-6], normals[-6:-3], normals[-3:]


def run_trial(seed: int, trial: int) -> FuzzInstance:
    """One fuzz draw: random mixed state, random complementary signal pair,
    two random meter axes; checks both bounds."""
    rho, quaternion, m, m_prime = _draw(next(_philox_streams(seed, [trial])))
    state = validate_state(rho)
    frame = rotation_from_quaternion(_unit(quaternion))
    pi_s = QubitMeasurement(frame[:, 0])
    pi_s_prime = QubitMeasurement(frame[:, 1])
    pi_m = QubitMeasurement(_unit(m))
    pi_m_prime = QubitMeasurement(_unit(m_prime))
    check = check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    same = check_same_meter_bound(state, pi_s, pi_s_prime, pi_m)
    return FuzzInstance(
        trial, state, pi_s.axis, pi_s_prime.axis, pi_m.axis, pi_m_prime.axis, check, same
    )


def _draw_block(seed: int, trials: np.ndarray) -> tuple[np.ndarray, ...]:
    """The draws of ``trials`` stacked: states (N, 4, 4), then the signal
    axes s, s' and the meter axes m, m' (N, 3 each).

    Each stream is read as :func:`_draw` reads it, but the states are built
    as one stack per ancilla dimension, so they may differ from the scalar
    ones in the last bits.
    """
    dims, draws = [], []
    for rng in _philox_streams(seed, trials):
        d = _ancilla_dim(rng)
        dims.append(d)
        draws.append(rng.normal(size=8 * d + 10))
    dims = np.array(dims)
    normals = np.concatenate(draws)
    tail_start = np.cumsum(8 * dims + 10) - 10
    rho = np.empty((len(dims), 4, 4), dtype=complex)
    for d in range(1, 5):
        rows = np.flatnonzero(dims == d)
        parts = normals[(tail_start[rows] - 8 * d)[:, None] + np.arange(8 * d)]
        amplitudes = parts[:, : 4 * d] + 1j * parts[:, 4 * d :]
        amplitudes /= np.linalg.norm(amplitudes, axis=1, keepdims=True)
        amplitudes = amplitudes.reshape(-1, 4, d)
        rho[rows] = amplitudes @ amplitudes.conj().swapaxes(1, 2)
    tail = normals[tail_start[:, None] + np.arange(10)]
    q, m, m_prime = tail[:, :4], tail[:, 4:7], tail[:, 7:]
    w, x, y, z = (q / np.linalg.norm(q, axis=1, keepdims=True)).T
    # Columns 0 and 1 of rotation_from_quaternion.
    s = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y + w * z), 2 * (x * z - w * y)], axis=1)
    s_prime = np.stack([2 * (x * y - w * z), 1 - 2 * (x * x + z * z), 2 * (y * z + w * x)], axis=1)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    m_prime = m_prime / np.linalg.norm(m_prime, axis=1, keepdims=True)
    return rho, s, s_prime, m, m_prime


def _screen(rho, s, s_prime, m, m_prime) -> tuple[np.ndarray, np.ndarray]:
    """Screened bound and same-meter slacks of a block of draws, after the
    checks that ``run_trial`` makes on each of them."""
    corr = _correlation_stack(_validate_stack(rho))
    return _bound_slacks(corr[:, 1:, 0], corr[:, 1:, 1:], s, s_prime, m, m_prime)


def _keep_near_minimum(kept, slack: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, ...]:
    """Add a block's (screened slack, trial) pairs to ``kept`` and drop every
    pair more than SCREEN_MARGIN above the minimum; trials stay in order."""
    slack = np.concatenate([kept[0], slack])
    trials = np.concatenate([kept[1], block])
    near = slack <= slack.min() + SCREEN_MARGIN
    return slack[near], trials[near]


def fuzz_bounds(trials: int, seed: int) -> FuzzSummary:
    """Run ``trials`` independent draws and report the minimum slacks.

    The worst instance of each bound is the first trial with the minimum
    scalar slack, exactly as over a list of every ``run_trial``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kept = [(np.empty(0), np.empty(0, dtype=np.int64))] * 2
    draw_s = screen_s = 0.0
    for start in range(0, trials, BLOCK):
        block = np.arange(start, min(start + BLOCK, trials))
        clock = time.perf_counter()
        draws = _draw_block(seed, block)
        drawn = time.perf_counter()
        slacks = _screen(*draws)
        kept = [_keep_near_minimum(k, slack, block) for k, slack in zip(kept, slacks)]
        draw_s += drawn - clock
        screen_s += time.perf_counter() - drawn
    (slack, near), (same_slack, near_same) = ((s.tolist(), t.tolist()) for s, t in kept)
    rerun = {t: run_trial(seed, t) for t in sorted({*near, *near_same})}
    worst = min((rerun[t] for t in near), key=lambda inst: inst.check.slack)
    worst_same = min((rerun[t] for t in near_same), key=lambda inst: inst.same_meter_check.slack)
    residuals = [abs(x - rerun[t].check.slack) for x, t in zip(slack, near)]
    residuals += [abs(x - rerun[t].same_meter_check.slack) for x, t in zip(same_slack, near_same)]
    return FuzzSummary(
        trials=trials,
        seed=seed,
        min_slack=worst.check.slack,
        worst=worst,
        min_same_meter_slack=worst_same.same_meter_check.slack,
        worst_same_meter=worst_same,
        reruns=len(rerun),
        draw_s=draw_s,
        screen_s=screen_s,
        screen_residual=max(residuals),
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


def evaluate_instance_json(data) -> tuple[BoundCheck, BoundCheck]:
    """Recompute both bound checks for a dumped instance (replay path)."""
    from .io import _json_floats, _read_key, complex_matrix_from_json

    if not isinstance(data, dict):
        raise ValueError("replay file must contain a JSON object")
    state = validate_state(_read_key(data, "matrix", complex_matrix_from_json, "replay file"))
    pi_s, pi_s_prime, pi_m, pi_m_prime = (
        _read_key(data, key, lambda axis: QubitMeasurement(_json_floats(axis)), "replay file")
        for key in ("signal_axis", "signal_axis_prime", "meter_axis", "meter_axis_prime")
    )
    check = check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime)
    same = check_same_meter_bound(state, pi_s, pi_s_prime, pi_m)
    return check, same
