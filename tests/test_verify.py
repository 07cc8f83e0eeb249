"""Tests for the batched fuzz screen: it must report what a scalar run reports."""

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
from bellbound import verify
from bellbound.cli import main
from bellbound.factories import _philox_streams
from bellbound.io import dumps_json
from bellbound.verify import (
    BLOCK,
    SCREEN_MARGIN,
    _ancilla_dim,
    _draw,
    _draw_block,
    _screen,
    fuzz_bounds,
    instance_to_json,
    run_trial,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEED = 31
AGREEMENT_TRIALS = 5000


@pytest.fixture(scope="module")
def scalar_trials():
    """The scalar reference: every trial run on its own."""
    return [run_trial(SEED, trial) for trial in range(AGREEMENT_TRIALS)]


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
        for trial, rng in zip(trials, _philox_streams(seed, trials)):
            draws = _draw(rng)
            after = rng.random(4)
            (legacy_rng,) = _philox_streams(seed, [trial])
            expected = legacy_draw(legacy_rng)
            for value, reference in zip(draws, expected):
                assert value.shape == reference.shape
                assert value.tobytes() == reference.tobytes()
            # both reads end at the same point of the stream
            assert np.array_equal(after, legacy_rng.random(4))
            dims.add(np.linalg.matrix_rank(draws[0]))
        assert dims == {1, 2, 3, 4}

    def test_random_state_is_unchanged(self):
        for seed in range(8):
            for rank in range(1, 5):
                key = np.array([seed, rank], dtype=np.uint64)
                rng = np.random.Generator(np.random.Philox(key=key))
                expected = bb.validate_state(legacy_density_matrix(rng, rank)).matrix
                assert bb.random_state(seed, rank).matrix.tobytes() == expected.tobytes()

    def test_block_reads_the_streams_as_the_scalar_draw(self):
        trials = np.arange(300)
        rho, s, s_prime, m, m_prime = _draw_block(SEED, trials)
        for i, instance in enumerate(run_trial(SEED, int(t)) for t in trials):
            np.testing.assert_allclose(rho[i], instance.state.matrix, rtol=0, atol=1e-15)
            for block, axis in zip((s, s_prime, m, m_prime), (
                instance.s_axis, instance.s_prime_axis, instance.m_axis, instance.m_prime_axis
            )):
                np.testing.assert_allclose(block[i], axis, rtol=0, atol=1e-15)


class TestFuzzBounds:
    def test_trial_streams_are_philox_keyed_by_seed_and_trial(self):
        trials = [0, 1, BLOCK, 10**6]
        for seed in (0, 7, -5, 2**64 + 3):
            draws = [rng.random(8) for rng in _philox_streams(seed, trials)]
            for trial, values in zip(trials, draws):
                key = np.array([seed % 2**64, trial], dtype=np.uint64)
                expected = np.random.Generator(np.random.Philox(key=key)).random(8)
                assert np.array_equal(values, expected)

    def test_summary_equals_scalar_reference_at_block_edges(self, scalar_trials, monkeypatch):
        screened = []

        def recording_draw_block(seed, trials):
            screened.append(trials)
            return _draw_block(seed, trials)

        monkeypatch.setattr(verify, "_draw_block", recording_draw_block)
        for trials in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7):
            screened.clear()
            reference = scalar_trials[:trials]
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

    def test_screened_slacks_agree_with_scalar_checks(self, scalar_trials):
        # fuzz_bounds reruns every trial within 1e-12 of the screened minimum,
        # which is safe only while the two paths agree far more closely.
        slack, same_slack = _screen(*_draw_block(SEED, np.arange(AGREEMENT_TRIALS)))
        scalar = np.array([inst.check.slack for inst in scalar_trials])
        scalar_same = np.array([inst.same_meter_check.slack for inst in scalar_trials])
        assert np.max(np.abs(slack - scalar)) < 1e-13
        assert np.max(np.abs(same_slack - scalar_same)) < 1e-13

    def test_corrupted_stack_raises_the_scalar_errors(self):
        rho, s, s_prime, m, m_prime = _draw_block(SEED, np.arange(8))

        def screen_with(index, value, target):
            corrupted = [array.copy() for array in (rho, s, s_prime, m, m_prime)]
            corrupted[target][index] = value
            return lambda: _screen(*corrupted)

        not_positive = np.diag([0.5, 0.7, -0.1, -0.1])
        with pytest.raises(bb.NotPositive):
            screen_with(3, not_positive, 0)()
        with pytest.raises(bb.TraceNotOne):
            screen_with(5, 1.1 * rho[5], 0)()
        with pytest.raises(bb.NotHermitian):
            screen_with(0, rho[0] + np.triu(np.ones((4, 4)), 1) * 1e-6, 0)()
        with pytest.raises(bb.NotComplementary):
            screen_with(6, s[6], 2)()
        with pytest.raises(ValueError, match="unit vector"):
            screen_with(2, 2.0 * m[2], 3)()
        # a NaN fails every check instead of passing it
        for target in (1, 2, 3, 4):
            with pytest.raises(ValueError, match="unit vector"):
                screen_with(4, [np.nan, 0.0, 0.0], target)()
        # the first invalid state decides the error, as in a trial-by-trial run
        corrupted = rho.copy()
        corrupted[2] = 1.1 * rho[2]
        corrupted[1] = not_positive
        with pytest.raises(bb.NotPositive):
            _screen(corrupted, s, s_prime, m, m_prime)

    def test_summary_counts_its_reruns(self):
        summary = fuzz_bounds(300, SEED)
        assert 1 <= summary.reruns <= 2
        assert summary.draw_s > 0 and summary.screen_s > 0

    @pytest.mark.parametrize("seed", [1, 2, SEED])
    def test_screen_residual_is_the_largest_rerun_difference(self, seed):
        # the screened slacks of the rerun trials against their scalar reruns,
        # in one block
        trials = BLOCK
        summary = fuzz_bounds(trials, seed)
        slack, same_slack = _screen(*_draw_block(seed, np.arange(trials)))
        residuals = []
        for screened, scalar in ((slack, "check"), (same_slack, "same_meter_check")):
            near = np.flatnonzero(screened <= screened.min() + SCREEN_MARGIN)
            residuals += [abs(screened[t] - getattr(run_trial(seed, t), scalar).slack)
                          for t in near]
        assert summary.screen_residual == max(residuals)
        assert 0.0 <= summary.screen_residual < SCREEN_MARGIN


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
