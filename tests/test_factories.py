"""Tests for state factories and the Werner closed forms."""

import sys
import threading

import numpy as np
import pytest

import bellbound as bb
from bellbound.factories import _philox_streams

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

    @pytest.mark.parametrize(
        "seed, ancilla_dim, name",
        [
            (3.5, 2, "seed"), (3.0, 2, "seed"), (True, 2, "seed"), (np.float64(3), 2, "seed"),
            ("3", 2, "seed"), (3, 1.9, "ancilla_dim"), (3, 2.0, "ancilla_dim"),
            (3, True, "ancilla_dim"), (3, np.bool_(True), "ancilla_dim"),
        ],
    )
    def test_rejects_arguments_that_are_not_integers(self, seed, ancilla_dim, name):
        # 3.5 and 1.9 were truncated to 3 and 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            bb.random_state(seed, ancilla_dim)

    @pytest.mark.parametrize("seed", [-5, 2**64 + 3, np.int64(-5), np.uint64(2**64 - 1)])
    @pytest.mark.parametrize("ancilla_dim", [2, np.int8(2), np.uint64(2)])
    def test_takes_python_and_numpy_integers(self, seed, ancilla_dim):
        expected = bb.random_state(int(seed), 2).matrix
        assert bb.random_state(seed, ancilla_dim).matrix.tobytes() == expected.tobytes()


def fresh_generator(seed, word):
    """The stream as a new Philox builds it: keyed by (seed % 2**64, word)."""
    key = np.array([int(seed) % 2**64, word], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def former_random_state(seed, ancilla_dim):
    """``random_state`` as it was built before its stream was opened by
    ``_philox_streams``: a new Philox per call, and one 4 x d state."""
    normals = fresh_generator(seed, ancilla_dim).normal(size=(2, 4, ancilla_dim))
    amplitudes = normals[0] + 1j * normals[1]
    amplitudes /= np.linalg.norm(amplitudes)
    return bb.validate_state(amplitudes @ amplitudes.conj().T)


def assert_same_state(bit_generator, reference):
    state, expected = bit_generator.state, reference.state
    assert state.keys() == expected.keys()
    for key in ("buffer_pos", "has_uint32", "uinteger"):
        assert state[key] == expected[key]
    for part in ("counter", "key"):
        assert state["state"][part].tolist() == expected["state"][part].tolist()
    assert state["buffer"].tolist() == expected["buffer"].tolist()


class TestPhiloxStreams:
    WORDS = [0, 1, 2**32, 2**62]

    @pytest.mark.parametrize("seed", [0, 7, -5, 2**63 + 11, 2**64 + 3])
    @pytest.mark.parametrize("leftover", ["none", "mid-buffer", "held-32-bit-half"])
    def test_each_generator_is_a_fresh_keyed_stream(self, seed, leftover):
        for word, rng in zip(self.WORDS, _philox_streams(seed, self.WORDS)):
            reference = fresh_generator(seed, word)
            assert_same_state(rng.bit_generator, reference.bit_generator)
            assert np.array_equal(rng.random(8), reference.random(8))
            # leave the stream as the next word must not see it
            if leftover == "mid-buffer":
                rng.bit_generator.random_raw(3)
                assert rng.bit_generator.state["buffer_pos"] != 4
            elif leftover == "held-32-bit-half":
                rng.integers(1, 5)
                assert rng.bit_generator.state["has_uint32"] == 1

    def test_a_new_iterator_starts_fresh_after_a_used_stream(self):
        (rng,) = _philox_streams(3, [1])
        rng.integers(0, 2**32, dtype=np.uint32)
        rng.bit_generator.random_raw(3)
        (rng,) = _philox_streams(3, [1])
        assert np.array_equal(rng.normal(size=12), fresh_generator(3, 1).normal(size=12))

    def test_threads_drawing_at_once_get_their_own_streams(self):
        # more threads than cores, switching often: a generator shared by
        # the threads would be reset by one between another's reset and draw
        keys = [(seed, rank) for seed in range(50) for rank in range(1, 5)]
        expected = [bb.random_state(*key).matrix.tobytes() for key in keys]
        found = [[] for _ in range(4)]

        def draw(out):
            out.extend(bb.random_state(*key).matrix.tobytes() for key in keys)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draw, args=(out,)) for out in found]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(out == expected for out in found)

    def test_random_state_equals_the_former_construction(self):
        for seed in [*range(64), -5, 2**64 + 3]:
            for rank in range(1, 5):
                expected = former_random_state(seed, rank).matrix
                assert bb.random_state(seed, rank).matrix.tobytes() == expected.tobytes()


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
