"""Tests for the fuzz block path: every row is a trial-by-trial result, bit for bit."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import bellbound as bb
from bellbound import factories, verify
from bellbound.cli import main
from bellbound.core import VALIDATION_TOL, _unit_axes, _validate_stack
from bellbound.factories import _philox_streams
from bellbound.io import dumps_json
from bellbound.verify import (
    BLOCK,
    SLACK_FLOOR,
    FuzzInstance,
    _ancilla_dim,
    _draw_block,
    _screen,
    fuzz_bounds,
    instance_to_json,
    run_trial,
)
from conftest import quaternion_rotation, scalar_checks

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEED = 31
ORACLE_TRIALS = 5000
CHECK_FIELDS = len(bb.BoundCheck._fields)


def rendered(instance):
    return dumps_json(instance_to_json(instance))


def legacy_density_matrix(rng, ancilla_dim):
    """The state as it was drawn before one call read all the normals."""
    amplitudes = rng.normal(size=(4, ancilla_dim)) + 1j * rng.normal(size=(4, ancilla_dim))
    amplitudes /= np.linalg.norm(amplitudes)
    return amplitudes @ amplitudes.conj().T


def legacy_draw(rng):
    """A trial's stream read in its former five calls after the dimension:
    real and imaginary amplitudes, quaternion, m, m'."""
    rho = legacy_density_matrix(rng, int(rng.integers(1, 5)))
    return rho, rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)


def legacy_measurements(quaternion, m, m_prime):
    """The signal pair and the meters of a legacy draw, built as a trial built
    them one at a time: s and s' are the first two columns of the rotation of
    the normalized quaternion, by the scalar formula of ``conftest``, and each
    meter direction is normalized."""
    frame = quaternion_rotation(quaternion / np.linalg.norm(quaternion))
    return (
        bb.QubitMeasurement(frame[:, 0]),
        bb.QubitMeasurement(frame[:, 1]),
        bb.QubitMeasurement(m / np.linalg.norm(m)),
        bb.QubitMeasurement(m_prime / np.linalg.norm(m_prime)),
    )


def legacy_trial(seed, trial):
    """The oracle: one trial drawn in five calls, then built by the public
    constructors and checked by the scalar closed forms of ``conftest``,
    which share no code with the library's kernel."""
    (rng,) = _philox_streams(seed, [trial])
    rho, *directions = legacy_draw(rng)
    state = bb.validate_state(rho)
    pi_s, pi_s_prime, pi_m, pi_m_prime = legacy_measurements(*directions)
    assert bb.are_complementary(pi_s, pi_s_prime)
    axes = (pi_s.axis, pi_s_prime.axis, pi_m.axis, pi_m_prime.axis)
    check, same = scalar_checks(bb.decompose(state), *axes)
    return FuzzInstance(trial, state, *axes, bb.BoundCheck(*check), bb.BoundCheck(*same))


def screen(rho, *axes):
    """The checks of a block of draws, its states validated as fuzz_bounds does."""
    return _screen(_validate_stack(rho), *axes)


@pytest.fixture(scope="module")
def legacy_trials():
    return [legacy_trial(SEED, trial) for trial in range(ORACLE_TRIALS)]


def check_rows(checks):
    """A block's two BoundChecks as one (N, 8) array of their fields."""
    return np.column_stack([*checks[0], *checks[1]])


class TestDraw:
    def test_dimension_from_one_raw_word_equals_integers(self):
        # 20 seeds x 100 words: small, negative, at or past 2**63 and 2**64
        seeds = [*range(5), *range(-5, 0), *range(2**63, 2**63 + 5), *range(2**64, 2**64 + 5)]
        words = list(range(100))
        counts = dict.fromkeys(range(1, 5), 0)
        for seed in seeds:
            for word, rng in zip(words, _philox_streams(seed, words)):
                key = np.array([seed % 2**64, word], dtype=np.uint64)
                reference = np.random.Generator(np.random.Philox(key=key))
                d = _ancilla_dim(rng)
                assert d == reference.integers(1, 5), (seed, word)
                # the draws that follow are the same
                k = 8 * d + 10
                assert rng.normal(size=k).tobytes() == reference.normal(size=k).tobytes()
                counts[d] += 1
        assert sum(counts.values()) == 2000 and min(counts.values()) > 400

    @pytest.mark.parametrize("seed", [0, 31, -5, 2**64 + 3])
    def test_one_call_draw_equals_the_five_call_sequence(self, seed):
        trials = list(range(40)) + [BLOCK, 10**6]
        dims = set()
        for trial in trials:
            rho, *axes = _draw_block(seed, [trial])
            # the thread's generator, still on the trial's stream
            after = factories._THREAD.rng.random(4)
            (legacy_rng,) = _philox_streams(seed, [trial])
            legacy_rho, *directions = legacy_draw(legacy_rng)
            # both reads end at the same point of the stream
            assert np.array_equal(after, legacy_rng.random(4))
            assert rho.shape == (1, 4, 4) and rho[0].tobytes() == legacy_rho.tobytes()
            for axis, measurement in zip(axes, legacy_measurements(*directions)):
                assert axis.shape == (1, 3)
                assert axis[0].tobytes() == measurement.axis.tobytes()
            dims.add(np.linalg.matrix_rank(rho[0]))
        assert dims == {1, 2, 3, 4}

    def test_random_state_is_unchanged(self):
        for seed in range(8):
            for rank in range(1, 5):
                key = np.array([seed, rank], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                expected = bb.validate_state(legacy_density_matrix(rng, rank)).matrix
                assert bb.random_state(seed, rank).matrix.tobytes() == expected.tobytes()

    def test_block_reads_the_streams_as_the_scalar_draw(self, legacy_trials):
        rho, *axes = _draw_block(SEED, np.arange(ORACLE_TRIALS))
        for i, oracle in enumerate(legacy_trials):
            assert bb.validate_state(rho[i]).matrix.tobytes() == oracle.state.matrix.tobytes()
            for block, axis in zip(axes, (
                oracle.s_axis, oracle.s_prime_axis, oracle.m_axis, oracle.m_prime_axis
            )):
                assert block[i].tobytes() == axis.tobytes()


class TestOnePath:
    def test_screened_checks_equal_the_scalar_checks(self, legacy_trials):
        rows = check_rows(screen(*_draw_block(SEED, np.arange(ORACLE_TRIALS))))
        expected = np.array([[*inst.check, *inst.same_meter_check] for inst in legacy_trials])
        assert rows.shape == (ORACLE_TRIALS, 2 * CHECK_FIELDS)
        assert rows.tobytes() == expected.tobytes()

    def test_run_trial_equals_the_trial_by_trial_oracle(self, legacy_trials):
        for oracle in legacy_trials:
            instance = run_trial(SEED, oracle.trial)
            assert instance.check == oracle.check
            assert instance.same_meter_check == oracle.same_meter_check
            assert rendered(instance) == rendered(oracle)
            for name in ("s_axis", "s_prime_axis", "m_axis", "m_prime_axis"):
                assert not getattr(instance, name).flags.writeable

    @pytest.mark.parametrize("seed", [SEED, -5, 2**64 + 3])
    def test_a_row_does_not_depend_on_its_block(self, seed):
        trials = np.arange(BLOCK)

        def screened(blocks):
            return {
                int(trial): row.tobytes()
                for block in blocks
                for trial, row in zip(block, check_rows(screen(*_draw_block(seed, block))))
            }

        alone = screened([[trial] for trial in trials])
        assert len(alone) == BLOCK
        assert screened(np.array_split(trials, range(7, BLOCK, 7))) == alone
        assert screened([trials]) == alone
        assert screened([trials[::-1]]) == alone


class TestFuzzBounds:
    def test_trial_streams_are_philox_keyed_by_seed_and_trial(self):
        trials = [0, 1, BLOCK, 10**6]
        for seed in (0, 7, -5, 2**64 + 3):
            draws = [rng.random(8) for rng in _philox_streams(seed, trials)]
            for trial, values in zip(trials, draws):
                key = np.array([seed % 2**64, trial], dtype=np.uint64)
                expected = np.random.Generator(np.random.Philox(key=key)).random(8)
                assert np.array_equal(values, expected)

    def test_summary_equals_scalar_reference_at_block_edges(self, legacy_trials, monkeypatch):
        screened = []

        def recording_draw_block(seed, trials):
            # only fuzz_bounds' own blocks: run_trial draws a block of one too
            if sys._getframe(1).f_code is fuzz_bounds.__code__:
                screened.append(trials)
            return _draw_block(seed, trials)

        monkeypatch.setattr(verify, "_draw_block", recording_draw_block)
        for trials in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7):
            screened.clear()
            reference = legacy_trials[:trials]
            worst = min(reference, key=lambda inst: inst.check.slack)
            worst_same = min(reference, key=lambda inst: inst.same_meter_check.slack)
            summary = fuzz_bounds(trials, SEED)
            assert (summary.trials, summary.seed) == (trials, SEED)
            assert summary.min_slack == worst.check.slack
            assert summary.min_same_meter_slack == worst_same.same_meter_check.slack
            assert rendered(summary.worst) == rendered(worst)
            assert rendered(summary.worst_same_meter) == rendered(worst_same)
            # every trial is screened once, in order, in blocks of at most BLOCK
            assert np.array_equal(np.concatenate(screened), np.arange(trials))
            assert max(map(len, screened)) <= BLOCK

    def test_summary_rebuilds_at_most_two_instances(self, monkeypatch):
        rebuilt = []

        def recording_run_trial(seed, trial):
            rebuilt.append(trial)
            return run_trial(seed, trial)

        monkeypatch.setattr(verify, "run_trial", recording_run_trial)
        summary = fuzz_bounds(300, SEED)
        assert 1 <= len(rebuilt) <= 2
        assert sorted(rebuilt) == sorted({summary.worst.trial, summary.worst_same_meter.trial})
        assert summary.draw_s > 0 and summary.screen_s > 0

    @pytest.mark.parametrize("field", ["check", "same_meter_check"])
    def test_a_rebuilt_slack_must_equal_its_screened_slack(self, monkeypatch, field):
        def drifting_run_trial(seed, trial):
            instance = run_trial(seed, trial)
            values = instance._asdict()
            check = values[field]
            values[field] = check._replace(slack=np.nextafter(check.slack, np.inf))
            return FuzzInstance(**values)

        monkeypatch.setattr(verify, "run_trial", drifting_run_trial)
        with pytest.raises(RuntimeError, match="depends on its block"):
            fuzz_bounds(50, SEED)

    @pytest.mark.parametrize(
        "trials, seed, name",
        [
            (True, 1, "trials"), (2.5, 1, "trials"), (10.0, 1, "trials"),
            (np.bool_(True), 1, "trials"), ("10", 1, "trials"),
            (10, 1.5, "seed"), (10, True, "seed"), (10, np.float64(1), "seed"),
        ],
    )
    def test_rejects_arguments_that_are_not_integers(self, trials, seed, name):
        # (10, 1.5) ran seed 1, (True, 1) reported trials: True and (2.5, 1)
        # raised a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            fuzz_bounds(trials, seed)

    @pytest.mark.parametrize("trials, seed", [(np.int32(20), -5), (20, np.uint64(7)),
                                              (np.int64(20), 2**64 + 3)])
    def test_takes_python_and_numpy_integers(self, trials, seed):
        summary = fuzz_bounds(trials, seed)
        assert type(summary.trials) is int and type(summary.seed) is int
        reference = fuzz_bounds(int(trials), int(seed))
        assert (summary.trials, summary.seed) == (reference.trials, reference.seed)
        assert rendered(summary.worst) == rendered(reference.worst)

    def test_corrupted_stack_raises_the_scalar_errors(self):
        rho, s, s_prime, m, m_prime = _draw_block(SEED, np.arange(8))

        def screen_with(index, value, target):
            corrupted = [array.copy() for array in (rho, s, s_prime, m, m_prime)]
            corrupted[target][index] = value
            return lambda: screen(*corrupted)

        not_positive = np.diag([0.5, 0.7, -0.1, -0.1])
        with pytest.raises(bb.NotPositive):
            screen_with(3, not_positive, 0)()
        with pytest.raises(bb.TraceNotOne):
            screen_with(5, 1.1 * rho[5], 0)()
        with pytest.raises(bb.NotHermitian):
            screen_with(0, rho[0] + np.triu(np.ones((4, 4)), 1) * 1e-6, 0)()
        with pytest.raises(bb.NotComplementary):
            screen_with(6, s[6], 2)()
        # the first invalid state decides the error, as in a trial-by-trial run
        corrupted = rho.copy()
        corrupted[2] = 1.1 * rho[2]
        corrupted[1] = not_positive
        with pytest.raises(bb.NotPositive):
            screen(corrupted, s, s_prime, m, m_prime)


@pytest.mark.parametrize("slot", range(4))
def test_corrupted_axis_stack_raises_the_scalar_error(slot):
    # the axes are checked once, as _draw_block produces them, by the check
    # whose 1-stack is QubitMeasurement; the screen does not check them again
    axes = _draw_block(SEED, np.arange(8))[1 + slot]
    # a doubled axis, and a NaN, which fails the check instead of passing it
    for index, value in ((2, 2.0 * axes[2]), (4, [np.nan, 0.0, 0.0])):
        corrupted = axes.copy()
        corrupted[index] = value
        with pytest.raises(ValueError, match="unit vector") as stacked:
            _unit_axes(corrupted)
        with pytest.raises(ValueError) as scalar:
            bb.QubitMeasurement(corrupted[index])
        assert str(stacked.value) == str(scalar.value)


def test_a_measurement_and_a_drawn_stack_share_one_unit_axis_verdict():
    # 200,000 unit vectors scaled by 1 + 1e-12 * (0.999..1.001), within
    # rounding of UNIT_AXIS_TOL: when QubitMeasurement tested math.hypot and
    # the fuzz screen np.linalg.norm, 4,276 of them got opposite verdicts
    rng = np.random.default_rng(22)
    v = rng.normal(size=(200_000, 3))
    scale = 1 + 1e-12 * rng.uniform(0.999, 1.001, len(v))
    rows = v / np.linalg.norm(v, axis=1)[:, None] * scale[:, None]
    axes = {}
    for i, row in enumerate(rows):
        with contextlib.suppress(ValueError):
            axes[i] = bb.QubitMeasurement(row).axis
    accepted = np.zeros(len(rows), dtype=bool)
    accepted[list(axes)] = True
    assert 0.4 < accepted.mean() < 0.6
    # the stack accepts the rows a measurement accepts, with the same bits
    assert _unit_axes(rows[accepted]).tobytes() == np.array(list(axes.values())).tobytes()
    # and rejects each of the others; a block fails at its first one
    def stack_accepts(row):
        try:
            _unit_axes(row[None])
        except ValueError:
            return False
        return True

    assert not any(map(stack_accepts, rows[~accepted]))
    first = int(np.argmin(accepted))
    with pytest.raises(ValueError) as stacked:
        _unit_axes(rows)
    with pytest.raises(ValueError) as scalar:
        bb.QubitMeasurement(rows[first])
    assert str(stacked.value) == str(scalar.value)


def test_slack_floor_absorbs_every_state_within_the_validation_tolerance():
    # (1 + e)|Phi+><Phi+| - e|Phi-><Phi-| has least eigenvalue -e, so it
    # validates for e up to VALIDATION_TOL; its same-meter sum is (1 + 2e)^2
    phi_plus, phi_minus = (np.outer(ket, ket.conj()) for ket in factories.BELL_KETS[:2])
    x, y = (bb.QubitMeasurement(axis) for axis in np.eye(3)[:2])
    for eps in np.linspace(0.0, 0.99 * VALIDATION_TOL, 34):
        state = bb.validate_state((1 + eps) * phi_plus - eps * phi_minus)
        slack = bb.check_same_meter_bound(state, x, y, x).slack
        assert slack == pytest.approx(-4 * eps, abs=1e-15)
        assert slack >= SLACK_FLOOR, eps


def test_seeded_outputs_match_the_recorded_digests(tmp_path, monkeypatch):
    # the benchmark's own step list and digests, read but not changed: every
    # seeded verify, simulate, sweep and surface output, run in-process
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    references = json.loads((PERFBENCH / "references.json").read_text())
    steps = list(workloads.seeded_cli_steps())
    assert len(steps) == len(references) == 81
    for step in steps:
        out = tmp_path / step.out
        with contextlib.redirect_stderr(io.StringIO()):
            assert main([*step.args, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == references[step.key], step.key
