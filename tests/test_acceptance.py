"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and runtime limit is pinned here.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import bellbound as bb
from conftest import partial_trace_meter, partial_trace_signal, random_unit_vector, trace_oracle

SQRT2 = np.sqrt(2.0)
HV = bb.measurement_from_polarization_angle(0.0)
XY = bb.measurement_from_polarization_angle(45.0)


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < limit_s, f"runtime {elapsed:.2f}s exceeds the {limit_s}s limit"
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_bell_factor_reference_values():
    with criterion(1, "Bell factors 2.319 / 1.273 within 1e-3", 5.0):
        assert abs(bb.bell_max(bb.werner(0.82)) - 2.319) < 1e-3
        assert abs(bb.bell_max(bb.werner(0.45)) - 1.273) < 1e-3


def test_criterion_2_werner_closed_forms_on_one_degree_grid():
    with criterion(2, "K, K', P, P' closed forms on a 1-degree grid within 1e-12", 1.0):
        for p in (0.82, 0.45):
            state = bb.werner(p)
            for theta in range(0, 181):
                meter = bb.measurement_from_polarization_angle(float(theta))
                k = bb.knowledge(state, meter, HV)
                k_prime = bb.knowledge(state, meter, XY)
                assert abs(k - p * abs(np.cos(np.radians(2 * theta)))) < 1e-12
                assert abs(k_prime - p * abs(np.sin(np.radians(2 * theta)))) < 1e-12
                assert bb.apriori(state, HV) < 1e-12
                assert bb.apriori(state, XY) < 1e-12


def test_criterion_3_saturation_on_one_degree_surface():
    with criterion(3, "surface max equals (B_max/2)^2 = 1.3448 at (0, 45)", 5.0):
        state = bb.werner(0.82)
        bound = (bb.bell_max(state) / 2.0) ** 2
        thetas = np.arange(0.0, 91.0)
        dk = np.array(
            [bb.knowledge_excess(state, bb.measurement_from_polarization_angle(t), HV) for t in thetas]
        )
        dk_prime = np.array(
            [bb.knowledge_excess(state, bb.measurement_from_polarization_angle(t), XY) for t in thetas]
        )
        surface = dk[:, None] ** 2 + dk_prime[None, :] ** 2
        i, j = np.unravel_index(np.argmax(surface), surface.shape)
        assert (thetas[i], thetas[j]) == (0.0, 45.0)
        assert abs(surface[i, j] - bound) < 1e-10
        assert abs(surface[i, j] - 1.3448) < 1e-10


def test_criterion_4_inequality_fuzzing_10k_instances():
    with criterion(4, "10^4 instances satisfy both excess-sum bounds (slack >= -1e-9)", 30.0):
        from bellbound.verify import fuzz_bounds

        summary = fuzz_bounds(10_000, seed=2026)
        assert summary.min_slack >= -1e-9
        assert summary.min_same_meter_slack >= -1e-9


def test_criterion_5_dual_path_oracle_1000_instances():
    with criterion(5, "trace and Bloch paths agree to 1e-12 on 10^3 instances", 5.0):
        rng = np.random.default_rng(5)
        for seed in range(1000):
            state = bb.random_state(seed, 1 + seed % 4)
            s_axis = random_unit_vector(rng)
            m_axis = random_unit_vector(rng)
            pi_s = bb.QubitMeasurement(s_axis)
            pi_m = bb.QubitMeasurement(m_axis)
            # raw trace-path oracle, independent of the library internals
            k_trace, p_trace, d_trace = trace_oracle(state.matrix, s_axis, m_axis)
            assert abs(bb.knowledge(state, pi_m, pi_s) - k_trace) < 1e-12
            assert abs(bb.apriori(state, pi_s) - p_trace) < 1e-12
            assert abs(bb.distinguishability(state, pi_s) - d_trace) < 1e-12


def test_criterion_6_estimator_consistency_at_1e8_counts():
    with criterion(6, "estimators on exact 1e8-count records within 1e-6 of theory", 1.0):
        n = 10**8
        for p in (0.82, 0.45):
            state = bb.werner(p)
            for theta in (0.0, 22.5, 60.0):
                meter = bb.measurement_from_polarization_angle(theta)
                for pi_s in (HV, XY):
                    record = bb.exact_counts(state, meter, pi_s, n)
                    assert abs(bb.estimate_knowledge(record) - bb.knowledge(state, meter, pi_s)) < 1e-6
                    assert abs(bb.estimate_apriori(record) - bb.apriori(state, pi_s)) < 1e-6
                    form = bb.decompose(state)
                    corr = float(pi_s.axis @ form.T @ meter.axis)
                    assert abs(bb.estimate_correlation(record) - corr) < 1e-6
            records = [
                bb.exact_counts(
                    state,
                    bb.measurement_from_polarization_angle(meter_deg),
                    bb.measurement_from_polarization_angle(signal_deg),
                    n,
                )
                for meter_deg, signal_deg in bb.BELL_ANGLE_PAIRS
            ]
            assert abs(bb.estimate_bell_max(records) - bb.bell_max(state)) < 1e-6


def test_criterion_7_shot_noise_spread_matches_reported_error_bar():
    with criterion(7, "B_max spread at ~1e4 counts/point within 3x of 0.02", 60.0):
        state = bb.werner(0.82)
        estimates = []
        for seed in range(200):
            config = bb.ExperimentConfig(pair_rate=10_000.0, duration=1.0, seed=seed)
            records = bb.simulate_bell_records(state, config)
            estimates.append(bb.estimate_bell_max(records))
        spread = float(np.std(estimates))
        assert 0.02 / 3.0 <= spread <= 0.02 * 3.0
        # the distribution must be centered on theory, not on the reported
        # measurement, which reflects the real apparatus
        assert abs(np.mean(estimates) - 0.82 * 2 * SQRT2) < 5 * spread / np.sqrt(len(estimates))


def test_criterion_8_filtering_claim_on_100_random_full_rank_states():
    with criterion(8, "filter converges, B' >= B, post-filter slack < 1e-6 (100 states)", 30.0):
        eye2 = np.eye(2)
        for seed in range(100):
            state = bb.random_state(seed, 4)
            result, check = bb.saturate_after_filter(state)
            rho = result.state_out.matrix
            assert np.max(np.abs(partial_trace_meter(rho) - eye2 / 2)) < 1e-8
            assert np.max(np.abs(partial_trace_signal(rho) - eye2 / 2)) < 1e-8
            assert result.b_max_out >= result.b_max_in - 1e-9
            assert abs(check.slack) < 1e-6


def test_criterion_9_mixing_model_identity():
    with criterion(9, "mixing-model inverse reproduces Werner states within 1e-12", 5.0):
        for p in (0.0, 0.45, 0.82, 1.0):
            state = bb.mixed_state_from_model(bb.werner_mixing_model(p))
            assert np.max(np.abs(state.matrix - bb.werner(p).matrix)) < 1e-12
