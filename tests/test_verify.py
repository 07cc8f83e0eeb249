"""Tests for the batched fuzz screen: it must report what a scalar run reports."""

import numpy as np
import pytest

import bellbound as bb
from bellbound import verify
from bellbound.factories import _philox_streams
from bellbound.io import dumps_json
from bellbound.verify import (
    BLOCK,
    _draw_block,
    _screen,
    fuzz_bounds,
    instance_to_json,
    run_trial,
)

SEED = 31
AGREEMENT_TRIALS = 5000


@pytest.fixture(scope="module")
def scalar_trials():
    """The scalar reference: every trial run on its own."""
    return [run_trial(SEED, trial) for trial in range(AGREEMENT_TRIALS)]


def rendered(instance):
    return dumps_json(instance_to_json(instance))


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
        # the first invalid state decides the error, as in a trial-by-trial run
        corrupted = rho.copy()
        corrupted[2] = 1.1 * rho[2]
        corrupted[1] = not_positive
        with pytest.raises(bb.NotPositive):
            _screen(corrupted, s, s_prime, m, m_prime)
