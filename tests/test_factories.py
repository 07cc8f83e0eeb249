"""Tests for state factories and the Werner closed forms."""

import numpy as np
import pytest

import bellbound as bb

SQRT2 = np.sqrt(2.0)


def singlet_matrix():
    ket = np.array([0, 1, -1, 0], dtype=complex) / SQRT2
    return np.outer(ket, ket.conj())


class TestWernerFactory:
    def test_p_one_is_singlet(self):
        np.testing.assert_allclose(bb.werner(1.0).matrix, singlet_matrix(), atol=1e-14)

    def test_p_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(bb.werner(0.0).matrix, np.eye(4) / 4, atol=1e-15)

    def test_full_positivity_range_is_accepted(self):
        bb.werner(-1.0 / 3.0)
        bb.werner(1.0)

    @pytest.mark.parametrize("p", [-0.34, 1.01, 2.0])
    def test_out_of_range(self, p):
        with pytest.raises(bb.OutOfRange):
            bb.werner(p)


class TestBellDiagonal:
    def test_pure_singlet_weight(self):
        np.testing.assert_allclose(
            bb.bell_diagonal([0, 0, 0, 1]).matrix, singlet_matrix(), atol=1e-14
        )

    def test_uniform_weights_give_maximally_mixed(self):
        np.testing.assert_allclose(
            bb.bell_diagonal([0.25, 0.25, 0.25, 0.25]).matrix, np.eye(4) / 4, atol=1e-14
        )

    @pytest.mark.parametrize("p", [0.45, 0.82])
    def test_werner_spectrum_identity(self, p):
        lams = [(1 - p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + 3 * p) / 4]
        np.testing.assert_allclose(bb.bell_diagonal(lams).matrix, bb.werner(p).matrix, atol=1e-12)

    def test_reductions_are_maximally_mixed(self, rng):
        from conftest import partial_trace_meter, partial_trace_signal

        state = bb.bell_diagonal(rng.dirichlet([1, 1, 1, 1]))
        np.testing.assert_allclose(partial_trace_meter(state.matrix), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace_signal(state.matrix), np.eye(2) / 2, atol=1e-12)

    def test_rejects_bad_weights(self):
        with pytest.raises(bb.NotAProbabilityVector):
            bb.bell_diagonal([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(bb.NotAProbabilityVector):
            bb.bell_diagonal([0.3, 0.3, 0.3, 0.3])
        with pytest.raises(bb.NotAProbabilityVector):
            bb.bell_diagonal([1.0, 0.0, 0.0])

    def test_rejects_nan_weights(self):
        # a NaN once passed both checks and failed later, in validate_state
        with pytest.raises(bb.NotAProbabilityVector, match="weights"):
            bb.bell_diagonal([np.nan, 0.0, 0.0, 1.0])


class TestRandomState:
    def test_same_seed_is_bit_identical(self):
        a = bb.random_state(42, 3)
        b = bb.random_state(42, 3)
        assert np.array_equal(a.matrix, b.matrix)

    def test_different_seeds_differ(self):
        assert not np.allclose(bb.random_state(1, 4).matrix, bb.random_state(2, 4).matrix)

    def test_rank_matches_ancilla_dimension(self):
        pure = bb.random_state(0, 1)
        eigenvalues = np.linalg.eigvalsh(pure.matrix)
        assert np.sum(eigenvalues > 1e-10) == 1
        for seed in range(10):
            full = bb.random_state(seed, 4)
            assert np.sum(np.linalg.eigvalsh(full.matrix) > 1e-10) == 4

    def test_rejects_bad_ancilla_dim(self):
        with pytest.raises(ValueError):
            bb.random_state(0, 5)


class TestWernerPrediction:
    def test_reference_point(self):
        pred = bb.werner_prediction(0.82, 0.0, 45.0)
        assert pred.K == pytest.approx(0.82, abs=1e-15)
        assert pred.K_prime == pytest.approx(0.82, abs=1e-12)
        assert pred.P == 0.0 and pred.P_prime == 0.0
        assert pred.b_max == pytest.approx(2.319, abs=1e-3)

    def test_b_max_for_p_045(self):
        assert bb.werner_prediction(0.45, 10.0, 20.0).b_max == pytest.approx(1.273, abs=1e-3)

    def test_matched_angle_identity(self):
        for theta in np.arange(0.0, 180.0, 7.5):
            pred = bb.werner_prediction(1.0, theta, theta)
            assert pred.K**2 + pred.K_prime**2 == pytest.approx(1.0, abs=1e-12)
        pred = bb.werner_prediction(1.0, 22.5, 22.5)
        assert pred.K == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(bb.OutOfRange):
            bb.werner_prediction(1.5, 0.0, 0.0)

    @pytest.mark.parametrize("p", [0.82, 0.45])
    def test_knowledge_module_agrees_on_one_degree_grid(self, p):
        state = bb.werner(p)
        hv = bb.measurement_from_polarization_angle(0.0)
        xy = bb.measurement_from_polarization_angle(45.0)
        for theta in range(0, 181, 1):
            meter = bb.measurement_from_polarization_angle(float(theta))
            pred = bb.werner_prediction(p, float(theta), float(theta))
            assert abs(bb.knowledge(state, meter, hv) - pred.K) < 1e-12
            assert abs(bb.knowledge(state, meter, xy) - pred.K_prime) < 1e-12

    def test_excess_sum_maximum_sits_at_the_expected_angles(self):
        # coarse grid: the maximum of dK^2 + dK'^2 occurs at theta in {0, 90}, theta' = 45
        p = 0.82
        thetas = np.arange(0.0, 91.0, 1.0)
        dk = np.array([bb.werner_prediction(p, t, t).K for t in thetas])
        dkp = np.array([bb.werner_prediction(p, t, t).K_prime for t in thetas])
        surface = dk[:, None] ** 2 + dkp[None, :] ** 2
        i, j = np.unravel_index(np.argmax(surface), surface.shape)
        assert thetas[i] in (0.0, 90.0)
        assert thetas[j] == 45.0
