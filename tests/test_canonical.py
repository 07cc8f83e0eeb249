"""Tests for the diagonal-T canonical form and the local-filtering normal form."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellbound as bb
from bellbound.canonical import (
    DEFAULT_FILTER_TOL,
    MAX_POLISH_ROUNDS,
    REDUCTION_EIGENVALUE_FLOOR,
    _boost,
    _filter,
)
from conftest import (
    defective_mixtures,
    filter_edge_states,
    locally_acted,
    partial_trace_meter,
    partial_trace_signal,
    random_unitary,
    turned_near_floor_draws,
)

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
    rho = locally_acted(rho, a, I2) if side == "signal" else locally_acted(rho, I2, a)
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
    """What the oracle iteration reports: the error's type, side and number,
    or B_max of the state it converges to."""
    try:
        rho = oracle_filter(state, **kwargs)[2]
    except bb.BellboundError as error:
        return _error_outcome(error)
    return bb.bell_max(bb.validate_state(rho))


def assert_same_outcome(state, tol=DEFAULT_FILTER_TOL, b_max_tol=1e-9):
    """The oracle's error (same type and side, its number within 1e-12), or a
    result whose success probability is the trace of its filters applied to
    the input by np.kron within 1e-12, whose reductions are within ``tol`` of
    1/2, and whose B_max out is the oracle's within ``b_max_tol``; returns the
    result."""
    expected = oracle_outcome(state, tol=tol)
    try:
        result = bb.filter_normal_form(state, tol=tol)
    except bb.BellboundError as error:
        got = _error_outcome(error)
        assert isinstance(expected, tuple), (got, expected)
        assert got[:2] == expected[:2]
        assert got[2] == pytest.approx(expected[2], rel=0, abs=1e-12)
        return None
    assert not isinstance(expected, tuple), (result, expected)
    success = locally_acted(state.matrix, result.f_signal, result.f_meter).trace().real
    assert result.success_probability == pytest.approx(success, rel=0, abs=1e-12)
    assert _oracle_deviation(result.state_out.matrix) <= tol
    assert result.b_max_out == pytest.approx(expected, rel=0, abs=b_max_tol)
    return result


def correlation_matrix(state):
    form = bb.decompose(state)
    corr = np.eye(4)
    corr[0, 1:], corr[1:, 0], corr[1:, 1:] = form.m, form.n, form.T
    return corr


def state_of(corr):
    return bb.recompose(bb.BlochForm(corr[1:, 0], corr[0, 1:], corr[1:, 1:])).matrix


STATES = [(seed, rank) for seed in range(100) for rank in (2, 3, 4)]
# The identity filter, as the row-major 4-tuple that ``_boost`` multiplies.
IDENTITY = (1.0, 0.0, 0.0, 1.0)


def half_step(corr, side):
    """The filter that takes the reduced state of the side ``corr``'s rows
    index to 1/2 (``corr`` is R for the signal, R^T for the meter)."""
    return _boost(corr, corr[1:, 0].tolist(), IDENTITY, side)


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


    def test_state_bar_and_its_round_trip_match_the_kronecker_reference(self):
        # state_bar is the input turned by (u_signal x u_meter)^dag, and
        # apply_local_unitary turns it back to the input
        for seed in range(25):
            for rank in range(1, 5):
                state = bb.random_state(seed, rank)
                cf = bb.canonical_form(state)
                u_s, u_m = cf.u_signal, cf.u_meter
                expected = locally_acted(state.matrix, u_s.conj().T, u_m.conj().T)
                assert np.max(np.abs(cf.state_bar.matrix - expected)) <= 1e-14
                back = bb.apply_local_unitary(cf.state_bar, u_s, u_m).matrix
                assert np.max(np.abs(back - locally_acted(cf.state_bar.matrix, u_s, u_m))) <= 1e-14
                assert np.max(np.abs(back - state.matrix)) <= 1e-14


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

    def test_max_iter_exhaustion_raises(self, monkeypatch):
        # A tolerance below rounding leaves the closed form short of it, so the
        # polish runs, and stops at the cap: uncapped, this state runs 3 rounds.
        from bellbound import canonical

        monkeypatch.setattr(canonical, "MAX_POLISH_ROUNDS", 1)
        state = bb.random_state(0, 4)
        with pytest.raises(bb.NoConvergence) as error:
            bb.filter_normal_form(state, tol=1e-17)
        assert error.value.iterations == 1

    def test_a_polish_that_gains_nothing_stops_at_once(self):
        # Each polish round must lower the deviation: one that stalls at the
        # rounding floor raises long before the cap.
        for seed in range(8):
            try:
                result = bb.filter_normal_form(bb.random_state(seed, 4), tol=1e-300)
            except bb.NoConvergence as error:
                assert 1 <= error.iterations <= 50
            else:
                assert result.deviation_log[-1:] in ((), (0.0,))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"tol": 0.0},
            {"tol": -1.0},
            # a bool is not a tolerance, as True once was not a round count
            {"tol": True},
        ],
    )
    def test_invalid_tol_raises(self, kwargs):
        # applies even where no iteration is needed
        for state in (bb.random_state(3, 4), bb.werner(0.5)):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                bb.filter_normal_form(state, **kwargs)

    def test_the_polish_has_no_cap_to_set(self):
        # the rounds end at the first that gains nothing, long before MAX_POLISH_ROUNDS
        with pytest.raises(TypeError, match="max_iter"):
            bb.filter_normal_form(bb.werner(0.5), max_iter=5)

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
            corr, a = half_step(correlation_matrix(state), "signal")
            rho, a_oracle = oracle_half_step(state.matrix, "signal")
            np.testing.assert_allclose(state_of(corr), rho, rtol=0, atol=1e-13)
            np.testing.assert_allclose(np.reshape(a, (2, 2)), a_oracle, rtol=1e-13, atol=1e-13)
            corr_t, b = half_step(corr.T, "meter")
            rho, b_oracle = oracle_half_step(rho, "meter")
            np.testing.assert_allclose(state_of(corr_t.T), rho, rtol=0, atol=1e-13)
            np.testing.assert_allclose(np.reshape(b, (2, 2)), b_oracle, rtol=1e-13, atol=1e-13)

    def test_full_runs_match_the_oracle(self):
        for seed, rank in STATES:
            state = bb.random_state(seed, rank)
            result = assert_same_outcome(state)
            # the filters applied to the input by np.kron give the returned state
            rho = locally_acted(state.matrix, result.f_signal, result.f_meter)
            np.testing.assert_allclose(
                result.state_out.matrix, rho / result.success_probability, rtol=0, atol=1e-12
            )

    def test_iteration_counts_of_the_benchmark_corpus(self):
        # the full-rank states that the optimize benchmark filters: the closed
        # form leaves no polish round
        counts = [bb.filter_normal_form(bb.random_state(seed, 4)).iterations for seed in range(8)]
        assert counts == [0] * 8

    @pytest.mark.parametrize(
        "name, matrix",
        filter_edge_states(REDUCTION_EIGENVALUE_FLOOR),
        ids=[case[0] for case in filter_edge_states(REDUCTION_EIGENVALUE_FLOOR)],
    )
    def test_edge_states_match_the_oracle(self, name, matrix):
        if name == "psi-plus-with-hh":
            # the oracle runs every round towards a limit; the filter raises at once
            assert_defective(bb.validate_state(matrix))
        else:
            # R's rounding of about 1e-17, amplified by the boost's 1/floor,
            # bounds how closely the filter on R can follow the oracle on rho
            b_max_tol = 1e-16 / REDUCTION_EIGENVALUE_FLOOR
            assert_same_outcome(bb.validate_state(matrix), b_max_tol=b_max_tol)


def assert_defective(state):
    """The normal form needs a boost of infinite speed: SingularReduction on
    the signal side, reporting 0, or a rounding of it, below the floor."""
    with pytest.raises(bb.SingularReduction) as error:
        bb.filter_normal_form(state)
    assert error.value.side == "signal"
    assert 0.0 <= error.value.min_eigenvalue < REDUCTION_EIGENVALUE_FLOOR


@st.composite
def filter_domain_states(draw):
    """A state from one of three families: a random state of rank 1 to 4 mixed
    with a product state; ``(1 - e)|HH><HH| + e|VV><VV|`` or ``1/2 x ((1 - e)|H><H|
    + e|V><V|)`` with e from 0.5 to 1000 times the floor; or a defective mixture;
    the last two turned by random local unitaries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["mixture", "near-floor", "defective"]))
    if family == "mixture":
        weight = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
        kets = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        product = np.kron(kets[0], kets[1])
        state = bb.random_state(draw(st.integers(0, 10**6)), draw(st.integers(1, 4)))
        return bb.validate_state(
            weight * state.matrix + (1.0 - weight) * np.outer(product, product.conj())
        )
    if family == "near-floor":
        e = REDUCTION_EIGENVALUE_FLOOR * 10 ** draw(st.floats(np.log10(0.5), 3.0))
        matrix = draw(st.sampled_from([
            np.diag([1.0 - e, 0.0, 0.0, e]), np.kron(np.eye(2) / 2, np.diag([1.0 - e, e]))
        ]))
    else:
        matrix = draw(st.sampled_from(defective_mixtures()))
    return bb.validate_state(locally_acted(matrix, random_unitary(rng), random_unitary(rng)))


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


class TestWholeDomain:
    def test_the_sweep_filters_in_closed_form(self):
        # random_state(143, 3) once ran 10,000 rounds and raised NoConvergence
        for seed, rank in [(143, 3), *((seed, rank) for seed in range(300) for rank in range(1, 5))]:
            result, closed = _filter(bb.random_state(seed, rank), DEFAULT_FILTER_TOL)
            assert result.iterations == 0
            assert closed <= DEFAULT_FILTER_TOL

    def test_defective_mixtures_raise_at_once(self, rng):
        for matrix in defective_mixtures():
            for _ in range(5):
                turned = locally_acted(matrix, random_unitary(rng), random_unitary(rng))
                assert_defective(bb.validate_state(turned))

    def test_a_filtered_state_past_the_positivity_limit_names_the_filter(self):
        # These valid inputs once raised NotPositive, a validation error that
        # blames the input, from the filter's exit check of its own output.
        draws = turned_near_floor_draws(50)
        for i, e in [(4, 1.414e-7), (21, 2.298e-7), (49, 3.123e-7)]:
            assert draws[i][0] == pytest.approx(e, rel=1e-3)
            with pytest.raises(bb.SingularReduction) as error:
                bb.filter_normal_form(bb.validate_state(draws[i][1]))
            assert error.value.side == "filtered"
            assert -2e-10 < error.value.min_eigenvalue < -1e-10
            assert str(error.value).startswith("filtered state is rank deficient:")
            assert f"(floor {REDUCTION_EIGENVALUE_FLOOR})" in str(error.value)

    def test_no_turned_near_floor_state_fails_as_an_input(self):
        outcomes = set()
        for _, matrix in turned_near_floor_draws():
            try:
                bb.filter_normal_form(bb.validate_state(matrix))
            except bb.StateValidationError as error:
                pytest.fail(f"the filter blamed a valid input: {error}")
            except (bb.SingularReduction, bb.NoConvergence) as error:
                outcomes.add(type(error).__name__)
            else:
                outcomes.add("result")
        assert outcomes == {"result", "SingularReduction", "NoConvergence"}

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(state=filter_domain_states())
    def test_every_state_gets_a_result_or_a_one_line_error_at_once(self, state):
        # Each state is answered within 10 ms (the faster of two runs), with a
        # deviation of at most tol, or with a library error, and never at the cap.
        timings = []
        for _ in range(2):
            start = time.perf_counter()
            try:
                result, closed = _filter(state, DEFAULT_FILTER_TOL)
            except bb.BellboundError as error:
                outcome = error
            else:
                outcome = result
            timings.append(time.perf_counter() - start)
        assert min(timings) < 0.010
        if isinstance(outcome, bb.BellboundError):
            assert str(outcome).count("\n") == 0
            assert getattr(outcome, "iterations", 0) < MAX_POLISH_ROUNDS
            return
        assert outcome.iterations < MAX_POLISH_ROUNDS
        if outcome.deviation_log:
            assert outcome.deviation_log[-1] <= DEFAULT_FILTER_TOL
        elif closed is not None:
            assert closed <= DEFAULT_FILTER_TOL
        else:
            assert _oracle_deviation(state.matrix) <= DEFAULT_FILTER_TOL
