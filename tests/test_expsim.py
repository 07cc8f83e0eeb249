"""Tests for the coincidence-counting simulator and the count-based estimators."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellbound as bb
from bellbound.expsim import (
    BELL_STREAM_OFFSET,
    POISSON_MEAN_MAX,
    _coincidence_stack,
    _simulate_stack,
)
from conftest import coincidence_oracle, random_unit_vector

EPS = np.finfo(float).eps
HV = bb.measurement_from_polarization_angle(0.0)
XY = bb.measurement_from_polarization_angle(45.0)
SQRT2 = np.sqrt(2.0)

counts_strategy = st.tuples(*[st.integers(min_value=0, max_value=10**6)] * 4).filter(
    lambda c: sum(c) > 0
)


def random_measurement(rng):
    return bb.QubitMeasurement(random_unit_vector(rng))


def random_axes(rng, n):
    axes = rng.normal(size=(n, 3))
    return axes / np.linalg.norm(axes, axis=1, keepdims=True)


class TestCoincidenceProbs:
    def test_singlet_parallel_analyzers(self):
        probs = bb.coincidence_probs(bb.werner(1.0), HV, HV)
        np.testing.assert_allclose(probs, [0.0, 0.5, 0.5, 0.0], atol=1e-14)

    def test_maximally_mixed(self, rng):
        probs = bb.coincidence_probs(
            bb.validate_state(np.eye(4) / 4), random_measurement(rng), random_measurement(rng)
        )
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-14)

    def test_werner_parallel_plus_plus_channel(self):
        # convex mixture: p|Psi-> contributes 0 to ++, white noise contributes 1/4
        for p in (0.82, 0.45):
            probs = bb.coincidence_probs(bb.werner(p), HV, HV)
            assert probs[0] == pytest.approx((1 - p) / 4, abs=1e-14)

    def test_index_order_is_meter_first(self):
        # signal fixed |H> (outcome +), meter fixed |V> (outcome -): channel -+ fires
        state = bb.validate_state(np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        probs = bb.coincidence_probs(state, HV, HV)
        np.testing.assert_allclose(probs, [0.0, 0.0, 1.0, 0.0], atol=1e-14)

    def test_unnormalized_matrix_raises_trace_not_one(self):
        # a state validates itself, so coincidence_probs never sees this matrix
        with pytest.raises(bb.TraceNotOne):
            bb.TwoQubitState(2.0 * bb.werner(0.82).matrix)

    def test_normalization_on_random_instances(self, rng):
        for seed in range(25):
            state = bb.random_state(seed, 1 + seed % 4)
            probs = bb.coincidence_probs(state, random_measurement(rng), random_measurement(rng))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= -1e-12)


class TestCoincidenceStack:
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
    def test_matches_kron_trace_oracle(self, rng, n):
        # R and a Kronecker trace round in different orders; the worst
        # deviation measured over 8000 points was 1.5 eps.
        for rank in (1, 2, 3, 4):
            state = bb.random_state(n + rank, rank)
            meters, signals = random_axes(rng, n), random_axes(rng, n)
            probs = _coincidence_stack(state, meters, signals)
            assert probs.shape == (n, 4)
            oracle = np.array(
                [coincidence_oracle(state.matrix, m, s) for m, s in zip(meters, signals)]
            )
            assert np.max(np.abs(probs - oracle)) <= 4 * EPS

    def test_marginals(self, rng):
        for rank in (1, 2, 3, 4):
            state = bb.random_state(40 + rank, rank)
            form = bb.decompose(state)
            meters, signals = random_axes(rng, 200), random_axes(rng, 200)
            probs = _coincidence_stack(state, meters, signals).reshape(-1, 2, 2)
            # axes (point, meter outcome, signal outcome), + before -
            signal_bias = np.einsum("k,Nk->N", form.n, signals)
            meter_bias = np.einsum("k,Nk->N", form.m, meters)
            signal_marginal = np.stack([1 + signal_bias, 1 - signal_bias], axis=1) / 2
            meter_marginal = np.stack([1 + meter_bias, 1 - meter_bias], axis=1) / 2
            assert np.max(np.abs(probs.sum(axis=1) - signal_marginal)) <= 4 * EPS
            assert np.max(np.abs(probs.sum(axis=2) - meter_marginal)) <= 4 * EPS

    def test_single_point_is_coincidence_probs(self, rng):
        state = bb.random_state(5, 3)
        pi_m, pi_s = random_measurement(rng), random_measurement(rng)
        stacked = _coincidence_stack(state, pi_m.axis[np.newaxis], pi_s.axis[np.newaxis])
        assert np.array_equal(stacked[0], bb.coincidence_probs(state, pi_m, pi_s))

    # A state validates itself, so the stack never sees these matrices.
    def test_unnormalized_state_raises_trace_not_one(self):
        with pytest.raises(bb.TraceNotOne):
            bb.TwoQubitState(1.5 * bb.random_state(3, 4).matrix)

    def test_non_hermitian_state_raises_not_hermitian(self):
        matrix = bb.random_state(3, 4).matrix.copy()
        matrix[0, 1] += 0.01
        with pytest.raises(bb.NotHermitian):
            bb.TwoQubitState(matrix)

    def test_empty_stack(self):
        empty = np.empty((0, 3))
        assert _coincidence_stack(bb.werner(0.82), empty, empty).shape == (0, 4)


class TestSimulateStack:
    def test_each_channel_is_a_fresh_philox_draw(self, rng):
        state = bb.random_state(11, 4)
        streams = [0, 1, 5, 1026, BELL_STREAM_OFFSET + 3]
        meters, signals = random_axes(rng, len(streams)), random_axes(rng, len(streams))
        for seed in (0, 7, -5, 2**64 + 3):
            config = bb.ExperimentConfig(
                pair_rate=455.0, duration=22.0, dark_coincidence_rate=2.0, seed=seed
            )
            records = _simulate_stack(state, meters, signals, config, streams)
            means = _coincidence_stack(state, meters, signals) * 455.0 * 22.0 + 2.0 * 22.0
            for stream, record, mean in zip(streams, records, means):
                keys = [
                    np.array([seed % 2**64, stream << 2 | channel], dtype=np.uint64)
                    for channel in range(4)
                ]
                expected = [
                    np.random.Generator(np.random.Philox(key=key)).poisson(channel_mean)
                    for key, channel_mean in zip(keys, mean)
                ]
                assert [record.c_pp, record.c_pm, record.c_mp, record.c_mm] == expected

    def test_points_are_simulate_counts(self, rng):
        state = bb.random_state(2, 2)
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=4)
        meters, signals = random_axes(rng, 3), random_axes(rng, 3)
        records = _simulate_stack(state, meters, signals, config, [9, 3, 0])
        for stream, record, m, s in zip([9, 3, 0], records, meters, signals):
            single = bb.simulate_counts(
                state, bb.QubitMeasurement(m), bb.QubitMeasurement(s), config, stream=stream
            )
            assert record == single

    def test_largest_stream_draws(self):
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=4)
        for stream in (2**62 - 1, np.int64(2**62 - 1)):
            assert bb.simulate_counts(bb.werner(0.82), XY, HV, config, stream=stream).total > 0

    @pytest.mark.parametrize(
        "points, streams, message",
        [
            # zip once stopped at the shorter input and returned 1 point of 3
            (3, [5], "expected one RNG stream per point: 3 points, 1 streams"),
            (1, [0, 1], "expected one RNG stream per point: 1 points, 2 streams"),
            # numpy once raised OverflowError on these two
            (1, [-1], "RNG stream must be an integer in [0, 2**62), got -1"),
            (1, [2**62], f"RNG stream must be an integer in [0, 2**62), got {2**62}"),
            # 1.5 was once read as stream 1
            (1, [1.5], "RNG stream must be an integer in [0, 2**62), got 1.5"),
            (1, [True], "RNG stream must be an integer in [0, 2**62), got True"),
            (2, [0, "1"], "RNG stream must be an integer in [0, 2**62), got '1'"),
        ],
    )
    def test_streams_are_checked(self, points, streams, message):
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=4)
        angles = [(10.0 * i, "hv") for i in range(points)]
        with pytest.raises(ValueError, match=re.escape(message)):
            bb.run_sweep_experiment(0.82, angles, config, streams=streams)
        if points == len(streams) == 1:
            with pytest.raises(ValueError, match=re.escape(message)):
                bb.simulate_counts(bb.werner(0.82), XY, HV, config, stream=streams[0])


class TestSimulateCounts:
    def test_zero_duration_gives_zero_counts(self):
        config = bb.ExperimentConfig(pair_rate=1000.0, duration=0.0, seed=1)
        counts = bb.simulate_counts(bb.werner(0.82), HV, HV, config)
        assert counts == bb.CountRecord(0, 0, 0, 0)

    def test_singlet_parallel_channels_never_fire(self):
        # zero-mean Poisson is exactly zero
        state = bb.werner(1.0)
        for seed in range(100):
            config = bb.ExperimentConfig(pair_rate=500.0, duration=1.0, seed=seed)
            counts = bb.simulate_counts(state, HV, HV, config)
            assert counts.c_pp == 0 and counts.c_mm == 0

    def test_state_at_trace_tolerance_gives_counts(self):
        # validate_state accepts |tr - 1| < 1e-10; such a state must stay usable
        state = bb.validate_state(bb.werner(0.82).matrix * (1 + 5e-11))
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=7)
        assert bb.simulate_counts(state, XY, HV, config).total > 0

    def test_fixed_seed_is_bit_identical(self):
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=7)
        a = bb.simulate_counts(bb.werner(0.82), XY, HV, config, stream=5)
        b = bb.simulate_counts(bb.werner(0.82), XY, HV, config, stream=5)
        assert a == b

    def test_streams_are_independent(self):
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=7)
        a = bb.simulate_counts(bb.werner(0.82), XY, HV, config, stream=0)
        b = bb.simulate_counts(bb.werner(0.82), XY, HV, config, stream=1)
        assert a != b

    def test_sample_means_match_poisson_means(self):
        # statistical oracle: 1000 seeded runs per channel within 5 standard errors
        state = bb.werner(0.82)
        meter = bb.measurement_from_polarization_angle(20.0)
        runs = 1000
        expected = bb.coincidence_probs(state, meter, HV) * 2000.0 + 3.0
        samples = np.empty((runs, 4))
        for seed in range(runs):
            config = bb.ExperimentConfig(
                pair_rate=2000.0, duration=1.0, dark_coincidence_rate=3.0, seed=seed
            )
            counts = bb.simulate_counts(state, meter, HV, config)
            samples[seed] = [counts.c_pp, counts.c_pm, counts.c_mp, counts.c_mm]
        for channel in range(4):
            stderr = np.sqrt(expected[channel] / runs)
            assert abs(samples[:, channel].mean() - expected[channel]) < 5 * stderr

    def test_count_record_rejects_negative(self):
        with pytest.raises(ValueError):
            bb.CountRecord(1, 2, -3, 4)

    def test_config_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            bb.ExperimentConfig(pair_rate=-1.0, duration=1.0)

    @pytest.mark.parametrize("field", ["pair_rate", "duration", "dark_coincidence_rate"])
    def test_config_rejects_nan_and_names_the_field(self, field):
        # a NaN once passed the check and failed later, in numpy's Poisson draw
        values = {"pair_rate": 1.0, "duration": 1.0, "dark_coincidence_rate": 0.0, field: math.nan}
        with pytest.raises(ValueError, match=field):
            bb.ExperimentConfig(**values)

    @pytest.mark.parametrize("seed", [1.5, 1.0, True, np.bool_(False), np.float64(2), "a"])
    def test_config_rejects_a_seed_that_is_not_an_integer(self, seed):
        # 1.5 and True once drew exactly the counts of seed 1
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=seed)

    @pytest.mark.parametrize("seed", [-5, 2**64 + 3, np.int64(7), np.uint32(7)])
    def test_config_takes_python_and_numpy_integer_seeds(self, seed):
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=seed)
        assert type(config.seed) is int and config.seed == int(seed)
        reference = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=int(seed))
        state = bb.werner(0.82)
        assert bb.simulate_counts(state, XY, HV, config) == bb.simulate_counts(
            state, XY, HV, reference
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("rate, dark", [(1e10, 0.0), (1e300, 0.0), (1.0, 1e300)])
    def test_means_past_the_poisson_limit_raise(self, rate, dark):
        config = bb.ExperimentConfig(pair_rate=rate, duration=rate, dark_coincidence_rate=dark)
        with pytest.raises(ValueError, match="pair_rate"):
            bb.simulate_counts(bb.werner(0.82), XY, HV, config)

    def test_means_up_to_the_poisson_limit_draw(self):
        # Each channel mean is a quarter of the rate here.
        config = bb.ExperimentConfig(pair_rate=POISSON_MEAN_MAX, duration=1.0)
        assert bb.simulate_counts(bb.werner(1.0), XY, HV, config).total > 0


class TestEstimators:
    def test_knowledge_examples(self):
        assert bb.estimate_knowledge(bb.CountRecord(90, 10, 10, 90)) == pytest.approx(0.8)
        assert bb.estimate_knowledge(bb.CountRecord(50, 50, 50, 50)) == 0.0

    def test_apriori_examples(self):
        assert bb.estimate_apriori(bb.CountRecord(90, 10, 10, 90)) == 0.0
        assert bb.estimate_apriori(bb.CountRecord(100, 0, 100, 0)) == 1.0

    def test_correlation_examples(self):
        assert bb.estimate_correlation(bb.CountRecord(100, 0, 0, 100)) == 1.0
        assert bb.estimate_correlation(bb.CountRecord(0, 100, 100, 0)) == -1.0

    def test_empty_record_raises(self):
        empty = bb.CountRecord(0, 0, 0, 0)
        for estimator in (bb.estimate_knowledge, bb.estimate_apriori, bb.estimate_correlation):
            with pytest.raises(bb.EmptyRecord):
                estimator(empty)

    @given(counts_strategy)
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_discrete_ranges_and_k_dominates_p(self, raw):
        record = bb.CountRecord(*raw)
        k = bb.estimate_knowledge(record)
        p = bb.estimate_apriori(record)
        c = bb.estimate_correlation(record)
        assert 0.0 <= p <= k <= 1.0
        assert -1.0 <= c <= 1.0

    def test_exact_counts_reproduce_analytic_values(self, rng):
        # estimator-consistency oracle against the knowledge module, N = 1e8
        for seed in range(20):
            state = bb.random_state(seed, 1 + seed % 4)
            pi_m, pi_s = random_measurement(rng), random_measurement(rng)
            record = bb.exact_counts(state, pi_m, pi_s, 10**8)
            assert abs(bb.estimate_knowledge(record) - bb.knowledge(state, pi_m, pi_s)) < 1e-6
            assert abs(bb.estimate_apriori(record) - bb.apriori(state, pi_s)) < 1e-6
            form = bb.decompose(state)
            expected_corr = float(pi_s.axis @ form.T @ pi_m.axis)
            assert abs(bb.estimate_correlation(record) - expected_corr) < 1e-6

    def test_correlation_formula_matches_trace_oracle_exactly(self, rng):
        # the estimator arithmetic applied to exact channel probabilities
        for seed in range(20):
            state = bb.random_state(seed, 1 + seed % 4)
            pi_m, pi_s = random_measurement(rng), random_measurement(rng)
            probs = bb.coincidence_probs(state, pi_m, pi_s)
            estimate = probs[0] + probs[3] - probs[1] - probs[2]
            from conftest import PAULI

            observable = np.kron(
                sum(a * s for a, s in zip(pi_s.axis, PAULI)),
                sum(a * s for a, s in zip(pi_m.axis, PAULI)),
            )
            oracle = float(np.trace(state.matrix @ observable).real)
            assert abs(estimate - oracle) < 1e-12

    def test_exact_werner_knowledge_value(self):
        record = bb.exact_counts(bb.werner(0.82), HV, HV, 10**6)
        assert abs(bb.estimate_knowledge(record) - 0.82) < 2e-6

    def test_exact_werner_apriori_is_exactly_zero(self):
        # the +/- signal channel sums are identical count-by-count
        for p in (0.82, 0.45, 0.3):
            record = bb.exact_counts(bb.werner(p), HV, HV, 10**8)
            assert bb.estimate_apriori(record) == 0.0


class TestEstimateBellMax:
    def bell_records(self, state, total):
        return [
            bb.exact_counts(
                state,
                bb.measurement_from_polarization_angle(meter_deg),
                bb.measurement_from_polarization_angle(signal_deg),
                total,
            )
            for meter_deg, signal_deg in bb.BELL_ANGLE_PAIRS
        ]

    @pytest.mark.parametrize("p,reference", [(0.82, 2.319), (0.45, 1.273)])
    def test_werner_reference_values(self, p, reference):
        estimate = bb.estimate_bell_max(self.bell_records(bb.werner(p), 10**12))
        assert abs(estimate - p * 2 * SQRT2) < 1e-10
        assert abs(estimate - reference) < 1e-3

    def test_singlet_reaches_tsirelson(self):
        estimate = bb.estimate_bell_max(self.bell_records(bb.werner(1.0), 10**12))
        assert abs(estimate - 2 * SQRT2) < 1e-10

    def test_empty_record_identifies_which(self):
        records = self.bell_records(bb.werner(0.82), 10**6)
        records[2] = bb.CountRecord(0, 0, 0, 0)
        with pytest.raises(bb.EmptyRecord, match="record 2"):
            bb.estimate_bell_max(records)

    def test_requires_four_records(self):
        with pytest.raises(ValueError):
            bb.estimate_bell_max(self.bell_records(bb.werner(0.82), 10**6)[:3])

    def test_stderr_scales_with_counts(self):
        small = bb.bell_estimate_stderr(self.bell_records(bb.werner(0.82), 10**4))
        large = bb.bell_estimate_stderr(self.bell_records(bb.werner(0.82), 10**6))
        assert small == pytest.approx(10.0 * large, rel=0.05)


class TestMixingModel:
    def test_pure_singlet_limit(self):
        model = bb.MixingModel(visibility=1.0, w_singlet=1.0, w_hh=0.0, w_vv=0.0)
        np.testing.assert_allclose(
            bb.mixed_state_from_model(model).matrix, bb.werner(1.0).matrix, atol=1e-14
        )

    def test_zero_visibility_limit(self):
        model = bb.MixingModel(visibility=0.0, w_singlet=1.0, w_hh=0.0, w_vv=0.0)
        expected = np.diag([0.0, 0.5, 0.5, 0.0])
        np.testing.assert_allclose(bb.mixed_state_from_model(model).matrix, expected, atol=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.45, 0.82, 1.0])
    def test_werner_round_trip_identity(self, p):
        state = bb.mixed_state_from_model(bb.werner_mixing_model(p))
        assert np.max(np.abs(state.matrix - bb.werner(p).matrix)) < 1e-12

    def test_werner_mixing_parameters(self):
        model = bb.werner_mixing_model(0.82)
        assert model.visibility == pytest.approx(2 * 0.82 / 1.82, abs=1e-12)
        assert model.w_singlet == pytest.approx(0.91, abs=1e-12)
        assert model.w_hh == pytest.approx(0.045, abs=1e-12)
        assert model.w_vv == pytest.approx(0.045, abs=1e-12)

    def test_mixing_model_out_of_range(self):
        with pytest.raises(bb.OutOfRange):
            bb.werner_mixing_model(-0.1)
        with pytest.raises(bb.OutOfRange):
            bb.werner_mixing_model(1.1)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            bb.MixingModel(visibility=1.2, w_singlet=1.0, w_hh=0.0, w_vv=0.0)
        with pytest.raises(ValueError):
            bb.MixingModel(visibility=0.5, w_singlet=0.6, w_hh=0.3, w_vv=0.3)

    @pytest.mark.parametrize(
        "weights", [(math.nan, 0.5, 0.5), (0.5, math.nan, 0.5), (1.0, 0.0, math.nan)]
    )
    def test_model_rejects_nan_weights(self, weights):
        with pytest.raises(ValueError, match="mixing weights"):
            bb.MixingModel(0.9, *weights)

    def test_schedule_weights_proportional_to_rate_times_duration(self):
        model = bb.mixing_model_from_schedule(0.9, [22.0, 10.0, 13.0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            [model.w_singlet, model.w_hh, model.w_vv],
            np.array([22.0, 10.0, 13.0]) / 45.0,
            atol=1e-14,
        )

    def test_schedule_can_reproduce_werner_weights(self):
        # rates chosen so the unequal durations compensate them exactly
        target = bb.werner_mixing_model(0.82)
        durations = [22.0, 10.0, 13.0]
        rates = [target.w_singlet / 22.0, target.w_hh / 10.0, target.w_vv / 13.0]
        model = bb.mixing_model_from_schedule(target.visibility, durations, rates)
        state = bb.mixed_state_from_model(model)
        assert np.max(np.abs(state.matrix - bb.werner(0.82).matrix)) < 1e-12

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            bb.mixing_model_from_schedule(0.9, [1.0, 2.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            bb.mixing_model_from_schedule(0.9, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            bb.mixing_model_from_schedule(0.9, [1.0, -1.0, 1.0], [1.0, 1.0, 1.0])

    def test_schedule_rejects_nan_and_names_the_entries(self):
        # a NaN duration once built a model with NaN weights
        with pytest.raises(ValueError, match="durations"):
            bb.mixing_model_from_schedule(0.9, [math.nan, 10.0, 8.0], [1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="rates"):
            bb.mixing_model_from_schedule(0.9, [22.0, 10.0, 8.0], [1.0, math.nan, 1.0])


class TestRunSweepExperiment:
    def test_estimates_track_theory_within_4_stderr(self):
        config = bb.ExperimentConfig(pair_rate=10**6, duration=1.0, seed=11)
        angles = [(float(t), "hv") for t in range(0, 91, 5)]
        points = bb.run_sweep_experiment(0.82, angles, config)
        n = 10**6
        for point in points:
            stderr = (np.sqrt(max(1.0 - point.dk_theory**2, 0.0)) + 1.0) / np.sqrt(n)
            assert abs(point.dk_hat - point.dk_theory) < 4 * stderr

    def test_zero_duration_raises_empty_record(self):
        config = bb.ExperimentConfig(pair_rate=100.0, duration=0.0, seed=0)
        with pytest.raises(bb.EmptyRecord):
            bb.run_sweep_experiment(0.82, [(0.0, "hv")], config)

    def test_p_zero_excess_is_noise_level(self):
        config = bb.ExperimentConfig(pair_rate=10**6, duration=1.0, seed=3)
        points = bb.run_sweep_experiment(0.0, [(float(t), "hv") for t in (0, 30, 60)], config)
        for point in points:
            assert abs(point.dk_hat) < 4 * 2.0 / np.sqrt(10**6)

    def test_without_config_points_are_exact(self):
        state = bb.werner(-0.2)
        angles = [(float(t), basis) for t in (-33, 0, 17.5, 90, 200) for basis in ("hv", "xy")]
        for point in bb.run_sweep_experiment(-0.2, angles, None):
            meter = bb.measurement_from_polarization_angle(point.theta_deg)
            signal = bb.signal_measurement(point.basis)
            assert point.counts is None
            assert point.k_hat == bb.knowledge(state, meter, signal)
            assert point.p_hat == bb.apriori(state, signal)
            assert point.dk_hat == bb.knowledge_excess(state, meter, signal)
            assert point.dk_theory == pytest.approx(point.dk_hat, abs=1e-12)

    def test_point_i_draws_from_streams_i(self):
        config = bb.ExperimentConfig(455.0, 22.0, dark_coincidence_rate=2.0, seed=5)
        angles = [(10.0, "hv"), (80.0, "xy"), (45.0, "hv")]
        points = bb.run_sweep_experiment(0.82, angles, config, streams=[7, 0, 3])
        for stream, point, (theta, basis) in zip([7, 0, 3], points, angles):
            single = bb.run_sweep_experiment(0.82, [(theta, basis)] * (stream + 1), config)[stream]
            assert point == single

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            bb.signal_measurement("diag")

    def test_bell_records_are_deterministic(self):
        config = bb.ExperimentConfig(pair_rate=455.0, duration=22.0, seed=9)
        a = bb.simulate_bell_records(bb.werner(0.82), config)
        b = bb.simulate_bell_records(bb.werner(0.82), config)
        assert a == b
