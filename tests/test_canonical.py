"""Tests for the diagonal-T canonical form and the local-filtering normal form."""

import numpy as np
import pytest

import bellbound as bb
from bellbound.canonical import REDUCTION_EIGENVALUE_FLOOR, _half_step
from conftest import filter_edge_states, partial_trace_meter, partial_trace_signal, random_unitary

I2 = np.eye(2)


# The filter iteration on the 4x4 density matrix, by np.kron and eigh: an
# independent reference for the iteration on R.
def _oracle_reduced_states(rho):
    tensor = rho.reshape(2, 2, 2, 2)
    return np.einsum("smtm->st", tensor), np.einsum("smsn->mn", tensor)


def _oracle_deviation(rho):
    rho_s, rho_m = _oracle_reduced_states(rho)
    return max(float(np.max(np.abs(rho_s - I2 / 2))), float(np.max(np.abs(rho_m - I2 / 2))))


def oracle_half_step(rho, side):
    """``(2 rho_side)^(-1/2)`` applied to ``rho`` on one side: the renormalized
    state and the filter."""
    reduced = _oracle_reduced_states(rho)[side == "meter"]
    eigenvalues, vectors = np.linalg.eigh(reduced)
    if eigenvalues[0] < REDUCTION_EIGENVALUE_FLOOR:
        raise bb.SingularReduction(side, float(eigenvalues[0]))
    a = (vectors * (1.0 / np.sqrt(2.0 * eigenvalues))) @ vectors.conj().T
    big = np.kron(a, I2) if side == "signal" else np.kron(I2, a)
    rho = big @ rho @ big.conj().T
    return rho / rho.trace().real, a


def oracle_filter(state, tol=1e-10, max_iter=10_000):
    """The alternating iteration: ``(iterations, deviation_log, rho, f_signal,
    f_meter)`` before the final rotation; raises as ``filter_normal_form`` does."""
    rho, f_signal, f_meter = np.array(state.matrix), I2, I2
    deviations, iterations = [], 0
    if _oracle_deviation(rho) > tol:
        for iterations in range(1, max_iter + 1):
            rho, a = oracle_half_step(rho, "signal")
            rho, b = oracle_half_step(rho, "meter")
            f_signal, f_meter = a @ f_signal, b @ f_meter
            deviations.append(_oracle_deviation(rho))
            if deviations[-1] <= tol:
                break
        else:
            raise bb.NoConvergence(max_iter, deviations[-1])
    return iterations, deviations, rho, f_signal, f_meter


def _error_outcome(error):
    """The error's type, its side and the number it reports."""
    value = getattr(error, "min_eigenvalue", getattr(error, "deviation", 0.0))
    return type(error), getattr(error, "side", None), value


def oracle_outcome(state, **kwargs):
    """What ``filter_normal_form`` must report, from the oracle: the error's type,
    side and number, or iterations, deviation log, success probability and B_max out."""
    try:
        iterations, deviations, rho, f_signal, f_meter = oracle_filter(state, **kwargs)
    except bb.BellboundError as error:
        return _error_outcome(error)
    big = np.kron(f_signal, f_meter) / (np.linalg.norm(f_signal, 2) * np.linalg.norm(f_meter, 2))
    success = float((big @ state.matrix @ big.conj().T).trace().real)
    return iterations, deviations, success, bb.bell_max(bb.validate_state(rho))


def library_outcome(state, **kwargs):
    try:
        result = bb.filter_normal_form(state, **kwargs)
    except bb.BellboundError as error:
        return _error_outcome(error)
    return result.iterations, result.deviation_log, result.success_probability, result.b_max_out


def assert_same_outcome(state, **kwargs):
    """Same error type, side and number, or the same iterations, and the rest
    within 1e-12."""
    expected, got = oracle_outcome(state, **kwargs), library_outcome(state, **kwargs)
    assert len(got) == len(expected)
    assert got[0] == expected[0]
    if len(expected) == 3:
        assert got[1] == expected[1]
        assert got[2] == pytest.approx(expected[2], rel=0, abs=1e-12)
        return
    np.testing.assert_allclose(got[1], expected[1], rtol=0, atol=1e-12)
    assert got[2] == pytest.approx(expected[2], rel=0, abs=1e-12)
    assert got[3] == pytest.approx(expected[3], rel=0, abs=1e-12)


def correlation_matrix(state):
    form = bb.decompose(state)
    corr = np.eye(4)
    corr[0, 1:], corr[1:, 0], corr[1:, 1:] = form.m, form.n, form.T
    return corr


def state_of(corr):
    return bb.recompose(bb.BlochForm(corr[1:, 0], corr[0, 1:], corr[1:, 1:])).matrix


STATES = [(seed, rank) for seed in range(100) for rank in (2, 3, 4)]
# The identity filter, as the row-major 4-tuple that ``_half_step`` multiplies.
IDENTITY = (1.0, 0.0, 0.0, 1.0)


class TestCanonicalForm:
    def test_werner_is_already_canonical(self):
        cf = bb.canonical_form(bb.werner(0.82))
        np.testing.assert_allclose(cf.diag, [-0.82, -0.82, -0.82], atol=1e-12)
        np.testing.assert_allclose(cf.o_signal, np.eye(3))
        np.testing.assert_allclose(cf.o_meter, np.eye(3))
        np.testing.assert_allclose(cf.u_signal, I2)

    def test_rotated_singlet_recovers_unit_diagonal(self, rng):
        singlet = bb.werner(1.0)
        for _ in range(5):
            rotated = bb.apply_local_unitary(singlet, random_unitary(rng), random_unitary(rng))
            cf = bb.canonical_form(rotated)
            np.testing.assert_allclose(np.abs(cf.diag), [1.0, 1.0, 1.0], atol=1e-10)
            back = bb.apply_local_unitary(cf.state_bar, cf.u_signal, cf.u_meter)
            assert np.max(np.abs(back.matrix - rotated.matrix)) < 1e-10

    def test_negative_determinant_t_gets_one_sign_flip(self):
        # Phi+ has T = diag(1, -1, 1), det T = -1: proper rotations need a sign in diag
        state = bb.bell_diagonal([1.0, 0.0, 0.0, 0.0])
        cf = bb.canonical_form(state)
        assert np.prod(np.sign(cf.diag)) == -1.0
        assert abs(np.linalg.det(cf.o_signal) - 1.0) < 1e-10
        assert abs(np.linalg.det(cf.o_meter) - 1.0) < 1e-10

    def test_diagonal_but_unordered_t_gets_permuted(self):
        # lambda = (0.4, 0.3, 0.2, 0.1) gives T = diag(0.2, 0.0, 0.4)
        state = bb.bell_diagonal([0.4, 0.3, 0.2, 0.1])
        cf = bb.canonical_form(state)
        np.testing.assert_allclose(np.abs(cf.diag), [0.4, 0.2, 0.0], atol=1e-12)
        t = bb.decompose(state).T
        assert np.max(np.abs(cf.o_signal @ np.diag(cf.diag) @ cf.o_meter.T - t)) < 1e-10
        back = bb.apply_local_unitary(cf.state_bar, cf.u_signal, cf.u_meter)
        assert np.max(np.abs(back.matrix - state.matrix)) < 1e-10

    def test_random_states_factorization_and_invariants(self, rng):
        for seed in range(40):
            state = bb.random_state(seed, 1 + seed % 4)
            t = bb.decompose(state).T
            cf = bb.canonical_form(state)
            assert np.max(np.abs(cf.o_signal @ np.diag(cf.diag) @ cf.o_meter.T - t)) < 1e-10
            assert abs(np.linalg.det(cf.o_signal) - 1.0) < 1e-10
            assert abs(np.linalg.det(cf.o_meter) - 1.0) < 1e-10
            squares = cf.diag**2
            assert squares[0] >= squares[1] - 1e-12 >= squares[2] - 2e-12
            t_bar = bb.decompose(cf.state_bar).T
            assert np.max(np.abs(t_bar - np.diag(np.diag(t_bar)))) < 1e-10
            assert abs(bb.bell_max(cf.state_bar) - bb.bell_max(state)) < 1e-10
            back = bb.apply_local_unitary(cf.state_bar, cf.u_signal, cf.u_meter)
            assert np.max(np.abs(back.matrix - state.matrix)) < 1e-10


class TestFilterNormalForm:
    def test_bell_diagonal_input_is_untouched(self):
        state = bb.bell_diagonal([0.1, 0.2, 0.3, 0.4])
        result = bb.filter_normal_form(state)
        assert result.iterations == 0
        np.testing.assert_allclose(result.f_signal, I2, atol=1e-12)
        np.testing.assert_allclose(result.f_meter, I2, atol=1e-12)
        np.testing.assert_allclose(result.state_out.matrix, state.matrix, atol=1e-12)
        assert result.success_probability == pytest.approx(1.0, abs=1e-12)

    def test_partially_entangled_pure_state_distills_to_maximal(self):
        # known Procrustean filtering: cos(a)|HH> + sin(a)|VV> filters to a Bell state
        for alpha_deg in (10.0, 30.0, 40.0):
            alpha = np.radians(alpha_deg)
            ket = np.zeros(4, dtype=complex)
            ket[0], ket[3] = np.cos(alpha), np.sin(alpha)
            state = bb.validate_state(np.outer(ket, ket.conj()))
            result = bb.filter_normal_form(state)
            assert result.b_max_out == pytest.approx(2 * np.sqrt(2), abs=1e-6)
            assert result.b_max_out >= result.b_max_in - 1e-9
            rho = result.state_out.matrix
            np.testing.assert_allclose(partial_trace_meter(rho), I2 / 2, atol=1e-8)
            np.testing.assert_allclose(partial_trace_signal(rho), I2 / 2, atol=1e-8)

    def test_pure_product_state_raises_singular_reduction(self):
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        with pytest.raises(bb.SingularReduction):
            bb.filter_normal_form(bb.validate_state(hh))

    def test_max_iter_exhaustion_raises(self):
        state = bb.random_state(7, 4)
        with pytest.raises(bb.NoConvergence):
            bb.filter_normal_form(state, max_iter=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": 0.0},
            {"tol": -1.0},
            {"max_iter": 0},
            {"max_iter": -1},
        ],
    )
    def test_invalid_tol_or_max_iter_raises(self, kwargs):
        # applies even where no iteration is needed
        for state in (bb.random_state(3, 4), bb.werner(0.5)):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                bb.filter_normal_form(state, **kwargs)

    def test_random_states_filter_properties(self):
        for seed in range(30):
            state = bb.random_state(seed, 4)
            result = bb.filter_normal_form(state)
            rho = result.state_out.matrix
            np.testing.assert_allclose(partial_trace_meter(rho), I2 / 2, atol=1e-8)
            np.testing.assert_allclose(partial_trace_signal(rho), I2 / 2, atol=1e-8)
            assert result.b_max_out >= result.b_max_in - 1e-9
            for f in (result.f_signal, result.f_meter):
                assert abs(np.linalg.svd(f, compute_uv=False)[0] - 1.0) < 1e-10
            assert 0.0 < result.success_probability <= 1.0 + 1e-12
            # convergence is monotone (non-strict) in the per-iteration deviation log
            log = result.deviation_log
            assert all(a >= b - 1e-12 for a, b in zip(log, log[1:]))
            t_out = bb.decompose(result.state_out).T
            assert np.max(np.abs(t_out - np.diag(np.diag(t_out)))) < 1e-8


class TestFilterAgainstDensityMatrixOracle:
    def test_half_steps_match_the_oracle(self):
        for seed, rank in STATES:
            state = bb.random_state(seed, rank)
            corr, a = _half_step(correlation_matrix(state), IDENTITY, "signal")
            rho, a_oracle = oracle_half_step(state.matrix, "signal")
            np.testing.assert_allclose(state_of(corr), rho, rtol=0, atol=1e-13)
            np.testing.assert_allclose(np.reshape(a, (2, 2)), a_oracle, rtol=1e-13, atol=1e-13)
            corr_t, b = _half_step(corr.T, IDENTITY, "meter")
            rho, b_oracle = oracle_half_step(rho, "meter")
            np.testing.assert_allclose(state_of(corr_t.T), rho, rtol=0, atol=1e-13)
            np.testing.assert_allclose(np.reshape(b, (2, 2)), b_oracle, rtol=1e-13, atol=1e-13)

    def test_full_runs_match_the_oracle(self):
        for seed, rank in STATES:
            assert_same_outcome(bb.random_state(seed, rank))

    def test_iteration_counts_of_the_benchmark_corpus(self):
        # the full-rank states that the optimize benchmark filters
        counts = [bb.filter_normal_form(bb.random_state(seed, 4)).iterations for seed in range(8)]
        assert counts == [18, 24, 31, 21, 14, 55, 40, 11]

    @pytest.mark.parametrize(
        "matrix, max_iter",
        [case[1:] for case in filter_edge_states(REDUCTION_EIGENVALUE_FLOOR)],
        ids=[case[0] for case in filter_edge_states(REDUCTION_EIGENVALUE_FLOOR)],
    )
    def test_edge_states_match_the_oracle(self, matrix, max_iter):
        kwargs = {} if max_iter is None else {"max_iter": max_iter}
        assert_same_outcome(bb.validate_state(matrix), **kwargs)


class TestSaturateAfterFilter:
    def test_werner_is_its_own_normal_form(self):
        result, check = bb.saturate_after_filter(bb.werner(0.82))
        assert result.iterations == 0
        assert check.sum_of_squares == pytest.approx(1.3448, abs=1e-10)
        assert abs(check.slack) < 1e-10

    def test_maximally_mixed(self):
        result, check = bb.saturate_after_filter(bb.validate_state(np.eye(4) / 4))
        assert check.sum_of_squares < 1e-14
        assert check.bound < 1e-14

    def test_random_full_rank_states_saturate_after_filtering(self):
        for seed in range(20):
            _, check = bb.saturate_after_filter(bb.random_state(seed, 4))
            assert abs(check.slack) < 1e-6
