"""Tests for knowledge quantities, the Bell factor, and the excess-sum bounds."""

import importlib
import subprocess
import sys

import numpy as np
import pytest

import bellbound as bb
from bellbound.factories import BELL_KETS
from conftest import (
    axis_projectors,
    random_unit_vector,
    random_unitary,
    reference_excess_sum,
    trace_oracle,
)

HV = bb.measurement_from_polarization_angle(0.0)
XY = bb.measurement_from_polarization_angle(45.0)
SQRT2 = np.sqrt(2.0)


def random_measurement(rng):
    return bb.QubitMeasurement(random_unit_vector(rng))


class TestKnowledge:
    def test_werner_at_parallel_analyzers(self):
        assert bb.knowledge(bb.werner(0.82), HV, HV) == pytest.approx(0.82, abs=1e-12)

    def test_werner_at_22_5_degrees(self):
        meter = bb.measurement_from_polarization_angle(22.5)
        expected = 0.82 * np.cos(np.radians(45.0))
        assert bb.knowledge(bb.werner(0.82), meter, HV) == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_gives_zero(self, rng):
        state = bb.validate_state(np.eye(4) / 4)
        assert bb.knowledge(state, random_measurement(rng), random_measurement(rng)) < 1e-14


class TestApriori:
    def test_werner_has_no_apriori_knowledge(self, rng):
        for p in (0.82, 0.45, 0.0, -0.3):
            assert bb.apriori(bb.werner(p), random_measurement(rng)) < 1e-14

    def test_deterministic_signal(self):
        state = bb.validate_state(np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        assert bb.apriori(state, HV) == pytest.approx(1.0, abs=1e-14)

    def test_matches_direct_probability_oracle(self, rng):
        for seed in range(50):
            state = bb.random_state(seed, 1 + seed % 4)
            axis = random_unit_vector(rng)
            plus, minus = axis_projectors(axis)
            p_plus = float(np.trace(np.kron(plus, np.eye(2)) @ state.matrix).real)
            p_minus = float(np.trace(np.kron(minus, np.eye(2)) @ state.matrix).real)
            value = bb.apriori(state, bb.QubitMeasurement(axis))
            assert value == pytest.approx(abs(p_plus - p_minus), abs=1e-12)


class TestKnowledgeExcess:
    def test_werner_excess_equals_knowledge(self):
        assert bb.knowledge_excess(bb.werner(0.82), HV, HV) == pytest.approx(0.82, abs=1e-12)

    def test_product_state_has_zero_excess(self, rng):
        rho_s = np.array([[0.8, 0.1j], [-0.1j, 0.2]])
        rho_m = np.array([[0.4, 0.2], [0.2, 0.6]])
        state = bb.validate_state(np.kron(rho_s, rho_m))
        for _ in range(10):
            assert bb.knowledge_excess(state, random_measurement(rng), random_measurement(rng)) < 1e-12

    def test_singlet_perfect_anticorrelation(self):
        assert bb.knowledge_excess(bb.werner(1.0), HV, HV) == pytest.approx(1.0, abs=1e-12)


class TestDistinguishability:
    def test_werner(self, rng):
        for p in (0.82, 0.45):
            assert bb.distinguishability(bb.werner(p), random_measurement(rng)) == pytest.approx(
                p, abs=1e-12
            )

    def test_excess_matches_row_formula(self):
        # at s = e3 the excess is max(0, |row 3 of T| - |n_3|)
        for seed in range(30):
            state = bb.random_state(seed, 2 + seed % 3)
            form = bb.decompose(state)
            expected = max(0.0, np.linalg.norm(form.T[2, :]) - abs(form.n[2]))
            assert bb.distinguishability_excess(state, HV) == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed(self):
        assert bb.distinguishability(bb.validate_state(np.eye(4) / 4), HV) < 1e-14


class TestOptimalMeter:
    def test_werner_meter_axis_is_signal_axis(self):
        meter = bb.optimal_meter(bb.werner(0.7), HV)
        assert abs(abs(float(meter.axis @ [0, 0, 1])) - 1.0) < 1e-12
        assert not meter.degenerate

    def test_maximally_mixed_is_degenerate(self):
        meter = bb.optimal_meter(bb.validate_state(np.eye(4) / 4), HV)
        assert meter.degenerate
        np.testing.assert_allclose(meter.axis, [0, 0, 1])

    def test_grid_search_never_beats_optimal_meter(self, rng):
        # enumeration oracle over 10^4 meter axes
        axes = rng.normal(size=(10_000, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        for seed in range(10):
            state = bb.random_state(seed, 4)
            signal = random_measurement(rng)
            best = bb.knowledge(state, bb.optimal_meter(state, signal), signal)
            form = bb.decompose(state)
            v = form.T.T @ signal.axis
            p = abs(float(form.n @ signal.axis))
            grid_best = np.max(np.maximum(p, np.abs(axes @ v)))
            assert best >= grid_best - 1e-9


class TestBellMax:
    def test_reference_values(self):
        assert bb.bell_max(bb.werner(0.82)) == pytest.approx(2.319, abs=1e-3)
        assert bb.bell_max(bb.werner(0.45)) == pytest.approx(1.273, abs=1e-3)
        assert bb.bell_max(bb.werner(1.0)) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_exact_closed_form(self):
        for p in (0.82, 0.45, 0.1, -0.33):
            assert bb.bell_max(bb.werner(p)) == pytest.approx(abs(p) * 2 * SQRT2, abs=1e-12)

    def test_invariant_under_local_unitaries(self, rng):
        for seed in range(20):
            state = bb.random_state(seed, 4)
            rotated = bb.apply_local_unitary(state, random_unitary(rng), random_unitary(rng))
            assert abs(bb.bell_max(rotated) - bb.bell_max(state)) < 1e-10


def edge_states():
    """States at the edges of the domain: Werner end points, pure product,
    a signal with a vanishing conditional weight along z, and rank 1."""
    ket = np.kron([1.0, 0.0], [np.cos(0.3), np.sin(0.3)])
    rho_m = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
    return [
        bb.werner(-1.0 / 3.0),
        bb.werner(1.0),
        bb.werner(0.0),
        bb.validate_state(np.outer(ket, ket)),
        bb.validate_state(np.kron(np.diag([1.0, 0.0]), rho_m)),
        *(bb.random_state(seed, 1) for seed in range(20)),
    ]


class TestInvariants:
    def test_monotonicity_chain_and_dual_paths(self, rng):
        # the Bloch closed forms against the raw trace oracle
        states = edge_states() + [bb.random_state(seed, 1 + seed % 4) for seed in range(1000)]
        for state in states:
            for pi_s in (random_measurement(rng), HV):
                pi_m = random_measurement(rng)
                k_ref, p_ref, d_ref = trace_oracle(state.matrix, pi_s.axis, pi_m.axis)
                k = bb.knowledge(state, pi_m, pi_s)
                p = bb.apriori(state, pi_s)
                d = bb.distinguishability(state, pi_s)
                assert abs(k - k_ref) < 1e-12
                assert abs(p - p_ref) < 1e-12
                assert abs(d - d_ref) < 1e-12
                assert bb.knowledge_excess(state, pi_m, pi_s) == k - p
                assert -1e-12 <= p <= k + 1e-12 <= d + 2e-12 <= 1 + 3e-12
                meter = bb.optimal_meter(state, pi_s)
                if not meter.degenerate:
                    assert abs(bb.knowledge(state, meter, pi_s) - d_ref) < 1e-12

    def test_axis_sign_invariance(self, rng):
        state = bb.random_state(123, 4)
        pi_m, pi_s = random_measurement(rng), random_measurement(rng)
        for flipped_m, flipped_s in [(pi_m.flipped(), pi_s), (pi_m, pi_s.flipped()),
                                     (pi_m.flipped(), pi_s.flipped())]:
            assert bb.knowledge(state, flipped_m, flipped_s) == pytest.approx(
                bb.knowledge(state, pi_m, pi_s), abs=1e-14
            )
            assert bb.apriori(state, flipped_s) == pytest.approx(
                bb.apriori(state, pi_s), abs=1e-14
            )
            assert bb.distinguishability(state, flipped_s) == pytest.approx(
                bb.distinguishability(state, pi_s), abs=1e-14
            )

    def test_report_fields_are_consistent(self, rng):
        state = bb.random_state(5, 3)
        report = bb.knowledge_report(state, random_measurement(rng), random_measurement(rng))
        assert report.deltaK == pytest.approx(report.K - report.P, abs=1e-15)
        assert report.deltaD == pytest.approx(report.D - report.P, abs=1e-15)
        assert report.deltaK >= 0 and report.deltaD >= -1e-15


class TestCheckBound:
    def test_werner_saturates_at_canonical_angles(self):
        check = bb.check_bound(bb.werner(0.82), HV, XY, HV, XY)
        assert check.sum_of_squares == pytest.approx(2 * 0.82**2, abs=1e-12)
        assert check.bound == pytest.approx(1.3448, abs=1e-12)
        assert abs(check.slack) < 1e-12

    def test_maximally_mixed_is_trivially_tight(self):
        check = bb.check_bound(bb.validate_state(np.eye(4) / 4), HV, XY, HV, XY)
        assert check.sum_of_squares < 1e-14
        assert check.bound < 1e-14

    def test_rejects_non_complementary_signal_pair(self):
        with pytest.raises(bb.NotComplementary):
            bb.check_bound(bb.werner(0.5), HV, HV, HV, XY)

    def test_fuzz_small(self):
        from bellbound.verify import fuzz_bounds

        summary = fuzz_bounds(2000, seed=99)
        assert summary.min_slack >= -1e-9
        assert summary.min_same_meter_slack >= -1e-9


class TestSameMeterBound:
    def test_singlet_saturation_at_22_5(self):
        meter = bb.measurement_from_polarization_angle(22.5)
        check = bb.check_same_meter_bound(bb.werner(1.0), HV, XY, meter)
        assert check.sum_of_squares == pytest.approx(1.0, abs=1e-12)
        assert check.bound == 1.0

    def test_maximally_mixed(self):
        check = bb.check_same_meter_bound(bb.validate_state(np.eye(4) / 4), HV, XY, HV)
        assert check.sum_of_squares < 1e-14
        assert check.slack == pytest.approx(1.0, abs=1e-14)

    def test_independent_meters_can_overstep_unit_bound(self):
        # with two meters the Werner(1) excess sum reaches 2 > 1
        check = bb.check_bound(bb.werner(1.0), HV, XY, HV, XY)
        assert check.sum_of_squares > 1.0 + 0.9


class TestOptimizeExcessSum:
    def test_werner_reaches_bound(self):
        optimum = bb.optimize_excess_sum(bb.werner(0.82))
        assert optimum.check.sum_of_squares == pytest.approx(2 * 0.82**2, abs=1e-10)
        assert abs(optimum.check.slack) < 1e-10
        assert bb.are_complementary(optimum.pi_s, optimum.pi_s_prime)

    def test_bell_diagonal_picks_two_largest_components(self):
        state = bb.recompose(bb.BlochForm(np.zeros(3), np.zeros(3), np.diag([-0.9, -0.5, -0.4])))
        optimum = bb.optimize_excess_sum(state)
        assert optimum.check.sum_of_squares == pytest.approx(0.9**2 + 0.5**2, abs=1e-9)
        assert optimum.check.bound == pytest.approx(1.06, abs=1e-12)

    def test_pure_product_state_has_zero_sum(self):
        ket = np.kron([1.0, 0.0], [np.cos(0.3), np.sin(0.3)])
        state = bb.validate_state(np.outer(ket, ket))
        optimum = bb.optimize_excess_sum(state)
        assert optimum.check.sum_of_squares < 1e-12

    def test_scipy_is_imported_only_by_the_optimizer(self):
        # The CLI and the optimizer are numpy only: neither the CLI's imports
        # nor a searched state load scipy.
        script = (
            "import sys\n"
            "import bellbound.cli\n"
            "import bellbound as bb\n"
            "optimum = bb.optimize_excess_sum(bb.random_state(0, 1))\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
            "print(optimum.path, optimum.check.slack)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        path, slack = proc.stdout.split()
        assert path == "searched"
        assert float(slack) >= -1e-12

    def test_random_bell_diagonal_states_saturate(self, rng):
        for _ in range(30):
            lams = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
            optimum = bb.optimize_excess_sum(bb.bell_diagonal(lams))
            assert abs(optimum.check.slack) < 1e-6

    @pytest.mark.parametrize(
        "seed, rank", [(8, 1), (1, 2), (12, 1), (13, 2), (16, 1), (28, 1), (33, 2), (20, 3), (0, 4)]
    )
    def test_reaches_the_independent_reference(self, seed, rank):
        # Each of these states once stalled a seed-only Nelder-Mead search.
        state = bb.random_state(seed, rank)
        optimum = bb.optimize_excess_sum(state)
        assert optimum.check.sum_of_squares >= reference_excess_sum(state) - 1e-9
        assert optimum.check.slack >= -1e-12
        assert bb.are_complementary(optimum.pi_s, optimum.pi_s_prime)

    def test_states_that_attain_the_bound_need_no_search(self, monkeypatch, rng):
        def no_search(*args, **kwargs):
            raise AssertionError("the seed frame attains the bound; no search is needed")

        monkeypatch.setattr(importlib.import_module("bellbound.knowledge"), "_polish", no_search)
        exact = [bb.werner(0.82)]
        exact += [bb.bell_diagonal(rng.dirichlet([1.0, 1.0, 1.0, 1.0])) for _ in range(30)]
        for state in exact:
            optimum = bb.optimize_excess_sum(state)
            assert abs(optimum.check.slack) < 1e-12
            assert (optimum.path, optimum.evaluations) == ("certified", 0)
        # The filter stops with |n| ~ 1e-10, so even the optimum of its output
        # falls short of the bound by about that; the seed is certified to 1e-9.
        for seed in range(10):
            filtered = bb.filter_normal_form(bb.random_state(seed, 4)).state_out
            slack = bb.optimize_excess_sum(filtered).check.slack
            assert -1e-12 < slack < 1e-9

    @pytest.mark.parametrize(
        "seed, rank, weight, optimum",
        [
            # A free Newton polish stalls short of these, and so does
            # Nelder-Mead on (65, 3), which ends 2.6e-8 below.
            (82, 3, 1.0, 0.1894664506597007),
            (88, 4, 1.0, 0.17583525287968388),
            (65, 3, 1.0, 0.26228263617199027),
            # The best screened frames all lie on the double ridge, where every
            # frame has the same sum; the optimum lies beside it.
            (638, 2, 1.0, 0.8075412657942426),
            (253, 4, 1.0, 0.17677795687836376),
            (133, 4, 1.0, 0.3279520634440445),
            # n is so small that frames off the ridges screen best.
            (99, 2, 0.03, 1.0237603829782338),
            (37, 2, 0.1, 0.7055345789830328),
            (53, 4, 0.01, 0.5647950244429083),
        ],
    )
    def test_reaches_optima_on_the_single_ridge(self, seed, rank, weight, optimum):
        # The optimum of each of these states lies on the kink n.s' = 0 (or
        # n.s = 0).  Mixing a state with its spin flip (sigma_y x sigma_y) rho*
        # (sigma_y x sigma_y) scales n and m by `weight` and keeps T.
        rho = bb.random_state(seed, rank).matrix
        flip = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
        mixed = 0.5 * (1 + weight) * rho + 0.5 * (1 - weight) * (flip @ rho.conj() @ flip)
        result = bb.optimize_excess_sum(bb.validate_state(mixed))
        assert result.check.sum_of_squares >= optimum - 1e-12
        assert result.check.slack >= -1e-12
        assert result.path == "searched"
        assert result.evaluations > 0

    def test_every_frame_is_matched_on_the_ridge(self, rng):
        # The search runs on the ridge n.s' = 0 alone.  Take a frame in the
        # plane P with normal w, n_P the projection of n onto P and c = T^T
        # n_P / |n_P|.  Turning the frame in P keeps sum_x |T^T x|^2 and
        # sum_x (n.x)^2 = |n_P|^2, and sum_x |T^T x| |n.x| >= |n_P| |c|, with
        # equality where an axis is along n_P; if both excesses are positive
        # that frame (n_P / |n_P|, w x n_P / |n_P|) is at least as good.  If
        # an excess is 0, turning that axis about the other axis x onto
        # x x n / |x x n| cannot lower the sum.
        def sums(form, s, s_prime):
            def excess(x):
                return np.maximum(0.0, np.linalg.norm(x @ form.T, axis=1) - np.abs(x @ form.n))

            return excess(s) ** 2 + excess(s_prime) ** 2

        def unit(v):
            return v / np.linalg.norm(v, axis=1, keepdims=True)

        for seed in range(40):
            form = bb.decompose(bb.random_state(seed, 1 + seed % 4))
            s = unit(rng.normal(size=(2000, 3)))
            s_prime = unit(np.cross(s, rng.normal(size=(2000, 3))))
            w = np.cross(s, s_prime)
            along_n = unit(form.n - (w @ form.n)[:, None] * w)
            on_ridge = np.maximum.reduce([
                sums(form, along_n, np.cross(w, along_n)),
                sums(form, s, unit(np.cross(s, form.n))),
                sums(form, s_prime, unit(np.cross(s_prime, form.n))),
            ])
            assert np.all(sums(form, s, s_prime) <= on_ridge + 1e-12)

    def test_double_ridge_frames_share_one_sum(self):
        # Where n.s = n.s' = 0 the frame spans the plane perpendicular to n, so
        # the sum is tr(T T^T) - n^T T T^T n / |n|^2 for every such frame.
        knowledge_module = importlib.import_module("bellbound.knowledge")
        for seed, rank in [(1, 1), (4, 2), (65, 3), (88, 4)]:
            state = bb.random_state(seed, rank)
            form = bb.decompose(state)
            basis = np.linalg.svd(form.n[None, :])[2]
            n_hat = basis[0]
            turns = np.arange(knowledge_module.RIDGE_TURNS) * np.pi / knowledge_module.RIDGE_TURNS
            frames = knowledge_module._ridge_frames(basis, *np.meshgrid(turns, turns))
            s, s_prime = frames.reshape(-1, 2, 3).swapaxes(0, 1)
            double = np.abs(s @ form.n) < 1e-12
            assert double.sum() == knowledge_module.RIDGE_TURNS
            m = form.T @ form.T.T
            expected = np.trace(m) - n_hat @ m @ n_hat
            frames = np.stack([s[double], s_prime[double]], axis=1)
            sums = knowledge_module._excess_sums(form, frames)
            assert np.allclose(sums, expected, rtol=0.0, atol=1e-12)
            # The optimizer never returns less than the double-ridge sum.
            assert bb.optimize_excess_sum(state).check.sum_of_squares >= expected - 1e-12

    def test_ridge_derivatives_match_central_differences(self, rng):
        # The safeguarded line search can hide a wrong derivative term from
        # the end-result tests.  Away from the kinks (n.s = 0, where beta =
        # pi/2, and a vanishing excess) the excess sum is smooth in the ridge
        # angles, so the closed-form gradient and Hessian must match central
        # differences of the sum (Richardson-extrapolated for the Hessian).
        knowledge_module = importlib.import_module("bellbound.knowledge")
        eye = np.eye(2)
        checked = 0
        for seed in range(40):
            form = bb.decompose(bb.random_state(seed, 1 + seed % 4))
            basis = np.linalg.svd(form.n[None, :])[2]
            angles = rng.uniform(0.0, np.pi, size=(400, 2))
            frames = knowledge_module._ridge_frames(basis, *angles.T)
            excess = np.linalg.norm(frames @ form.T, axis=-1) - np.abs(frames @ form.n)
            away = (np.abs(np.cos(angles[:, 1])) > 0.1) & np.all(excess > 2e-2, axis=1)
            angles = angles[away][:8]
            if not len(angles):
                continue

            def sums(shift):
                frames = knowledge_module._ridge_frames(basis, *(angles + shift).T)
                return knowledge_module._excess_sums(form, frames)

            def differences(h):
                gradient = np.stack(
                    [(sums(h * eye[i]) - sums(-h * eye[i])) / (2 * h) for i in range(2)], axis=1
                )
                hessian = np.empty((len(angles), 2, 2))
                for i, j in np.ndindex(2, 2):
                    a, b = h * eye[i], h * eye[j]
                    hessian[:, i, j] = sums(a + b) - sums(a - b) - sums(b - a) + sums(-a - b)
                return gradient, hessian / (4 * h * h)

            gradient, hessian = knowledge_module._ridge_derivatives(form, basis, angles)
            numeric_gradient = differences(1e-5)[0]
            coarse, fine = differences(2e-3)[1], differences(1e-3)[1]
            numeric_hessian = (4 * fine - coarse) / 3
            np.testing.assert_allclose(gradient, numeric_gradient, rtol=1e-6, atol=1e-9)
            # The differences round to about 1e-7 of each lane's largest entry.
            scale = np.abs(numeric_hessian).max(axis=(1, 2), keepdims=True)
            np.testing.assert_allclose(
                hessian / scale, numeric_hessian / scale, rtol=1e-6, atol=1e-7
            )
            checked += len(angles)
        assert checked >= 100

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_states(self):
        # |T^T x| vanishes on whole planes of these states; the polish must
        # not divide by it, and every result must be finite and complementary.
        h = np.array([1.0, 0.0])
        product = np.kron(h, [np.cos(0.3), np.sin(0.3)])
        psi = BELL_KETS[2]
        states = [
            bb.validate_state(np.outer(product, product)),
            bb.validate_state(np.eye(4) / 4),
            bb.werner(-1.0 / 3.0),
            bb.werner(0.0),
            bb.validate_state(np.kron(np.outer(h, h), [[0.7, 0.2], [0.2, 0.3]])),
            bb.validate_state(
                0.5 * np.outer(psi, psi.conj()) + 0.5 * np.outer(np.kron(h, h), np.kron(h, h))
            ),
        ]
        states += [bb.random_state(seed, 1) for seed in range(6)]
        for state in states:
            optimum = bb.optimize_excess_sum(state)
            check = optimum.check
            values = (check.sum_of_squares, check.bound, check.slack, check.b_max)
            assert np.all(np.isfinite(values))
            assert check.slack >= -1e-12
            assert bb.are_complementary(optimum.pi_s, optimum.pi_s_prime)
            assert optimum.path in ("certified", "searched")
            assert (optimum.evaluations == 0) == (optimum.path == "certified")
