"""Fuzz verification of the knowledge-excess bounds on random instances.

Each trial owns a counter-based RNG stream keyed by (seed, trial index), so
summaries are reproducible bit for bit and any single trial can be rerun on
its own.  A trial reads its stream in two calls: one raw 64-bit word, which
sets the ancilla dimension d in 1..4, then one draw of 8d + 10 normals that
hold, in order, the real and the imaginary amplitudes of a pure state on
4 x d (its reduction is the trial's mixed state), the signal-frame
quaternion and the two meter directions.

There is one path per trial.  ``_draw_block`` builds the draws of a block
of trials with the stacks of :func:`random_state` and
:func:`rotation_from_quaternion`, and ``_screen`` checks both bounds on them
with the kernel of every bound check, one trial's own operations per row, so
a row is the same bit for bit whatever block it sits in.  ``run_trial`` is
the block of one trial, and ``fuzz_bounds`` screens the trials in blocks,
keeps the first trial with the minimum slack of each bound and rebuilds those.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from .core import (
    QubitMeasurement,
    TwoQubitState,
    _array,
    _bloch_split,
    _Frozen,
    _frozen,
    _integer,
    _normalized,
    _rotation_stack,
    _set,
    _unit_axes,
    _validate_stack,
)
from .factories import _density_stack, _philox_streams
from .knowledge import BoundCheck, _bound_checks, _first

# Must stay at or below -4 * VALIDATION_TOL: validate_state accepts
# (1 + e)|Phi+><Phi+| - e|Phi-><Phi-| for e up to VALIDATION_TOL, and its
# same-meter check (signal axes x and y, meter axis x) has slack -4e.
SLACK_FLOOR = -1e-9
# Trials drawn and screened together; memory is O(BLOCK), not O(trials).
BLOCK = 1024


class FuzzInstance(_Frozen):
    """One random (state, measurement quadruple) draw and its bound checks."""

    __slots__ = (
        "trial", "state", "s_axis", "s_prime_axis", "m_axis", "m_prime_axis", "check",
        "same_meter_check",
    )
    __hash__ = None  # it holds arrays (see _Frozen)

    def __init__(
        self, trial: int, state: TwoQubitState, s_axis: np.ndarray, s_prime_axis: np.ndarray,
        m_axis: np.ndarray, m_prime_axis: np.ndarray, check: BoundCheck,
        same_meter_check: BoundCheck,
    ):
        _set(self, "trial", trial)
        _set(self, "state", state)
        for name, axis in zip(self.__slots__[2:6], (s_axis, s_prime_axis, m_axis, m_prime_axis)):
            _set(self, name, _frozen(_array(axis, name, (3,))))
        _set(self, "check", check)
        _set(self, "same_meter_check", same_meter_check)


class FuzzSummary(NamedTuple):
    """The minimum slacks of a fuzz run and the instances that reach them;
    ``draw_s`` and ``screen_s`` are the seconds spent drawing and screening
    the blocks."""

    trials: int
    seed: int
    min_slack: float
    worst: FuzzInstance
    min_same_meter_slack: float
    worst_same_meter: FuzzInstance
    draw_s: float = 0.0
    screen_s: float = 0.0

    @property
    def passed(self) -> bool:
        return self.min_slack >= SLACK_FLOOR and self.min_same_meter_slack >= SLACK_FLOOR


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


def _draw_block(seed: int, trials) -> tuple[np.ndarray, ...]:
    """The draws of ``trials`` stacked: the unvalidated states (N, 4, 4),
    then the signal axes s, s' and the meter axes m, m' (N, 3 each).

    Each row repeats the operations that build one trial from the public
    API, on the stacks whose 1-stacks are :func:`random_state` (one stack
    per ancilla dimension) and :func:`rotation_from_quaternion` (the frame of
    ``q / |q|``, whose columns are s and s').  Each axis, ``m / |m|`` too,
    goes through :func:`_unit_axes`, the check and normalization whose 1-stack
    is :class:`QubitMeasurement`, so a row is the same bit for bit in any block.
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
    for d in set(dims.tolist()):
        rows = np.flatnonzero(dims == d)
        parts = normals[(tail_start[rows] - 8 * d)[:, None] + np.arange(8 * d)]
        rho[rows] = _density_stack(parts, d)
    tail = normals[tail_start[:, None] + np.arange(10)]
    frame = _rotation_stack(_normalized(tail[:, :4]))
    s, s_prime = (_unit_axes(frame[:, :, k]) for k in (0, 1))
    m, m_prime = (_unit_axes(_normalized(tail[:, k : k + 3])) for k in (4, 7))
    return rho, s, s_prime, m, m_prime


def _screen(states, s, s_prime, m, m_prime) -> tuple[BoundCheck, BoundCheck]:
    """Both bound checks of a block of validated states (N, 4, 4) and its
    unit axes, checked where they were drawn or read, as BoundChecks of (N,)
    arrays."""
    n, _, t = _bloch_split(states)
    return _bound_checks(n, t, s, s_prime, m, m_prime)


def run_trial(seed: int, trial: int) -> FuzzInstance:
    """One fuzz draw: random mixed state, random complementary signal pair,
    two random meter axes; checks both bounds.  This is the block path on a
    block of one trial."""
    rho, *axes = _draw_block(seed, [trial])
    state = TwoQubitState._of(_frozen(_validate_stack(rho)[0]))
    checks = map(_first, _screen(state.matrix[None], *axes))
    return FuzzInstance._of(trial, state, *(_frozen(a)[0] for a in axes), *checks)


def fuzz_bounds(trials: int, seed: int) -> FuzzSummary:
    """Run ``trials`` independent draws and report the minimum slacks.

    The worst instance of each bound is the first trial with the minimum
    slack, exactly as over a list of every ``run_trial``.  Both are rebuilt
    by ``run_trial``, which must reproduce their screened slacks.
    """
    trials, seed = _integer(trials, "trials"), _integer(seed, "seed")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    # (slack, trial) of the first minimum of each bound so far
    best = [(float("inf"), 0)] * 2
    draw_s = screen_s = 0.0
    for start in range(0, trials, BLOCK):
        clock = time.perf_counter()
        rho, *axes = _draw_block(seed, range(start, min(start + BLOCK, trials)))
        drawn = time.perf_counter()
        for k, check in enumerate(_screen(_validate_stack(rho), *axes)):
            i = int(np.argmin(check.slack))
            best[k] = min(best[k], (float(check.slack[i]), start + i))
        draw_s += drawn - clock
        screen_s += time.perf_counter() - drawn
    (min_slack, trial), (min_same_meter_slack, same_trial) = best
    worst = run_trial(seed, trial)
    worst_same_meter = worst if same_trial == trial else run_trial(seed, same_trial)
    screened = (min_slack, min_same_meter_slack)
    rebuilt = (worst.check.slack, worst_same_meter.same_meter_check.slack)
    if rebuilt != screened:
        raise RuntimeError(f"trials {trial} and {same_trial} rebuilt with slacks {rebuilt}, "
                           f"screened {screened}: a row depends on its block")
    return FuzzSummary(
        trials, seed, min_slack, worst, min_same_meter_slack, worst_same_meter, draw_s, screen_s
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
    """Recompute both bound checks for a dumped instance, the JSON object of a
    replay file (as :func:`io.read_json` returns it), with the screen's own
    code on a block of one."""
    from .io import _read_key, state_from_json

    state = _read_key(data, "matrix", state_from_json, "replay file")
    axes = (
        _read_key(data, key, QubitMeasurement, "replay file")
        for key in ("signal_axis", "signal_axis_prime", "meter_axis", "meter_axis_prime")
    )
    return tuple(map(_first, _screen(state.matrix[None], *(pi.axis[None] for pi in axes))))
