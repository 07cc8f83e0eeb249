"""Tests for knowledge quantities, the Bell factor, and the excess-sum bounds."""

import importlib
import subprocess
import sys

import numpy as np
import pytest

import bellbound as bb
from bellbound.factories import BELL_KETS
from conftest import (
    _excess_sum,
    axis_projectors,
    random_unit_vector,
    random_unitary,
    reference_excess_sum,
    scalar_bell_max,
    scalar_checks,
    scalar_knowledge,
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


class TestKernel:
    """The public functions are 1-stacks of one stacked kernel; these tests
    hold them, and larger stacks, to the scalar closed forms of ``conftest``
    bit for bit."""

    @staticmethod
    def instances(rng, count):
        """Random states with random meters and complementary signal pairs,
        Werner 0.82 and 0.45 and the edge states of the optimizer first."""
        fixed = [bb.werner(0.82), bb.werner(0.45), *edge_states()]
        for i in range(count):
            state = fixed[i] if i < len(fixed) else bb.random_state(i, 1 + i % 4)
            frame = bb.rotation_from_quaternion(rng.normal(size=4))
            yield state, *(bb.QubitMeasurement(a) for a in (
                frame[:, 0], frame[:, 1], random_unit_vector(rng), random_unit_vector(rng)
            ))

    def test_public_functions_equal_the_scalar_forms(self, rng):
        for state, pi_s, pi_s_prime, pi_m, pi_m_prime in self.instances(rng, 3000):
            form = bb.decompose(state)
            k, p, d = scalar_knowledge(form, pi_m.axis, pi_s.axis)
            assert bb.knowledge_report(state, pi_m, pi_s) == (k, p, k - p, d, d - p)
            assert bb.knowledge(state, pi_m, pi_s) == k
            assert bb.apriori(state, pi_s) == p
            assert bb.knowledge_excess(state, pi_m, pi_s) == k - p
            assert bb.distinguishability(state, pi_s) == d
            assert bb.distinguishability_excess(state, pi_s) == d - p
            assert bb.bell_max(state) == scalar_bell_max(form)
            axes = (pi_s.axis, pi_s_prime.axis, pi_m.axis)
            check = scalar_checks(form, *axes, pi_m_prime.axis)[0]
            assert bb.check_bound(state, pi_s, pi_s_prime, pi_m, pi_m_prime) == check
            same = scalar_checks(form, *axes, pi_m.axis)[1]
            assert bb.check_same_meter_bound(state, pi_s, pi_s_prime, pi_m) == same
            direction = form.T.T @ pi_s.axis
            norm = float(np.linalg.norm(direction))
            meter = bb.optimal_meter(state, pi_s)
            assert meter.degenerate == (norm < 1e-12)
            if not meter.degenerate:
                assert meter.axis.tobytes() == bb.QubitMeasurement(direction / norm).axis.tobytes()

    def test_a_row_equals_its_1_stack(self, rng):
        knowledge = importlib.import_module("bellbound.knowledge")
        rows = list(self.instances(rng, 500))
        forms = [bb.decompose(state) for state, *_ in rows]
        n, t = np.array([f.n for f in forms]), np.array([f.T for f in forms])
        s, s_prime, m, m_prime = (np.array([row[k].axis for row in rows]) for k in range(1, 5))
        stacked = {
            "K": knowledge._knowledge_stack(n, t, m, s)[0],
            "P": knowledge._apriori_stack(n, s),
            "D": knowledge._distinguishability_stack(n, t, s)[0],
            "B": knowledge._bell_max_stack(t),
        }
        checks = knowledge._bound_checks(n, t, s, s_prime, m, m_prime)
        for i, (state, pi_s, pi_s_prime, pi_m, pi_m_prime) in enumerate(rows):
            report = bb.knowledge_report(state, pi_m, pi_s)
            assert [stacked[key][i] for key in "KPD"] == [report.K, report.P, report.D]
            assert stacked["B"][i] == bb.bell_max(state)
            assert tuple(field[i] for field in checks[0]) == bb.check_bound(
                state, pi_s, pi_s_prime, pi_m, pi_m_prime
            )

    def test_one_form_broadcasts_against_a_stack_of_axes(self, rng):
        # n (1, 3) and T (1, 3, 3) against 37 axis pairs, as a sweep and the
        # optimizer call the kernel, equal the scalar forms row by row
        knowledge = importlib.import_module("bellbound.knowledge")
        for seed in range(40):
            form = bb.decompose(bb.random_state(seed, 1 + seed % 4))
            m, s = (np.array([random_unit_vector(rng) for _ in range(37)]) for _ in range(2))
            n, t = form.n[None], form.T[None]
            k, p = knowledge._knowledge_stack(n, t, m, s)
            d = knowledge._distinguishability_stack(n, t, s)[0]
            rows = [scalar_knowledge(form, m_axis, s_axis) for m_axis, s_axis in zip(m, s)]
            assert np.column_stack([k, p, d]).tolist() == [list(row) for row in rows]

    def test_the_first_overlapping_row_is_reported(self):
        s = np.tile([1.0, 0.0, 0.0], (4, 1))
        s_prime = np.array([[0.0, 1.0, 0.0], [0.6, 0.8, 0.0], [0.8, 0.6, 0.0], [np.nan, 0.0, 0.0]])
        knowledge = importlib.import_module("bellbound.knowledge")
        with pytest.raises(bb.NotComplementary) as raised:
            knowledge._bound_checks(np.zeros((4, 3)), np.zeros((4, 3, 3)), s, s_prime, s, s)
        assert raised.value.dot == 0.6


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
            "optimum = bb.optimize_excess_sum(bb.random_state(0, 4))\n"
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

        monkeypatch.setattr(importlib.import_module("bellbound._ridge"), "_search", no_search)
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
            # Narrow bumps of the ridge profile F(alpha), about a grid step wide.
            # The 32-angle grid misses this one; the closed-form seed angle
            # lands in it.
            (1059, 3, 1.0, 0.27158762191893804),
            # The uphill neighbour of the best screened angle lies inside the
            # bump (175, 219) or on the flat double ridge outside it (238, 271),
            # where the slope does not change sign strictly.
            (175, 4, 1.0, 0.21563005708319907),
            (219, 4, 1.0, 0.3165628094642356),
            (238, 3, 1.0, 0.6278288006844778),
            (271, 4, 1.0, 0.5037817761479528),
            # A coarser, 16-angle screen can miss these.
            (158, 4, 1.0, 0.2757201250706504),
            (1195, 4, 1.0, 0.4150818922424092),
            (1382, 4, 1.0, 0.18648601670328002),
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
        ridge = importlib.import_module("bellbound._ridge")
        for seed, rank in [(1, 1), (4, 2), (65, 3), (88, 4)]:
            state = bb.random_state(seed, rank)
            form = bb.decompose(state)
            basis = np.linalg.svd(form.n[None, :])[2]
            n_hat = basis[0]
            turns = np.arange(ridge.RIDGE_TURNS) * np.pi / ridge.RIDGE_TURNS
            frames = ridge._ridge_frames(basis, *np.meshgrid(turns, turns))
            s, s_prime = frames.reshape(-1, 2, 3).swapaxes(0, 1)
            double = np.abs(s @ form.n) < 1e-12
            assert double.sum() == ridge.RIDGE_TURNS
            m = form.T @ form.T.T
            expected = np.trace(m) - n_hat @ m @ n_hat
            sums = _excess_sum(form, s[double], s_prime[double])
            assert np.allclose(sums, expected, rtol=0.0, atol=1e-12)
            # The optimizer never returns less than the double-ridge sum.
            assert bb.optimize_excess_sum(state).check.sum_of_squares >= expected - 1e-12

    def test_profile_is_exact_in_beta(self, rng):
        # F(alpha) maximizes the excess sum over the ridge angle beta in closed
        # form, so no point of a dense beta grid may beat it, and F is the sum
        # of the frame at its own maximizing beta.
        ridge = importlib.import_module("bellbound._ridge")
        beta = np.linspace(-np.pi / 2, np.pi / 2, 20_001)
        for seed in range(40):
            form = bb.decompose(bb.random_state(seed, 1 + seed % 4))
            basis = np.linalg.svd(form.n[None, :])[2]
            alpha = rng.uniform(0.0, np.pi, size=6)
            values, _, best = ridge._profile(form, basis, alpha)
            frames = ridge._ridge_frames(basis, *np.meshgrid(alpha, beta, indexing="ij"))
            s, s_prime = frames.reshape(-1, 2, 3).swapaxes(0, 1)
            grid = _excess_sum(form, s, s_prime).reshape(len(alpha), -1)
            assert np.all(grid.max(axis=1) <= values + 1e-12)
            s, s_prime = ridge._ridge_frames(basis, alpha, best).swapaxes(0, 1)
            own = _excess_sum(form, s, s_prime)
            np.testing.assert_allclose(own, values, rtol=0.0, atol=1e-12)

    def test_profile_slope_matches_central_differences(self):
        # The bracketed refinement can hide a wrong slope term from the
        # end-result tests.  Away from the kinks (beta = pi/2, a vanishing
        # excess of s, and angles where the maximizing beta jumps) F is smooth
        # in alpha, so dF/dalpha must match central differences of F.
        ridge = importlib.import_module("bellbound._ridge")
        alpha = np.linspace(0.0, np.pi, 720, endpoint=False)
        h = 1e-5
        checked = 0
        for seed in range(40):
            form = bb.decompose(bb.random_state(seed, 1 + seed % 4))
            basis = np.linalg.svd(form.n[None, :])[2]
            values, slopes, beta = ridge._profile(form, basis, alpha)
            above, _, beta_above = ridge._profile(form, basis, alpha + h)
            below, _, beta_below = ridge._profile(form, basis, alpha - h)
            frames = ridge._ridge_frames(basis, alpha, beta)
            s = frames[:, 0]
            excess = np.linalg.norm(s @ form.T, axis=1) - np.abs(s @ form.n)
            steady = np.maximum(np.abs(beta_above - beta), np.abs(beta_below - beta)) < 1e-3
            away = (np.abs(np.cos(beta)) > 0.1) & (excess > 2e-2) & steady
            numeric = (above - below) / (2 * h)
            np.testing.assert_allclose(slopes[away], numeric[away], rtol=1e-6, atol=1e-8)
            checked += int(away.sum())
        assert checked >= 100

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_edge_states(self):
        # |T^T x| vanishes on whole planes of these states; the search must
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
            assert optimum.path in ("certified", "flat", "searched")
            assert (optimum.evaluations == 0) == (optimum.path != "searched")


def ridge_terms(form):
    """The basis ``(n_hat, a, b)``, ``M = T T^T`` in it and ``|n|^2``, as
    optimize_excess_sum computes them for its flat test."""
    basis = np.linalg.svd(form.n[None, :])[2]
    return basis, basis @ form.T @ form.T.T @ basis.T, float(form.n @ form.n)


def criterion_max(m, nu2, turns=2000, sections=40):
    """The maximum over alpha of ``f = max(P, 0)^2 + 4 w^T H w`` (``H`` for
    ``|n|^2 = nu2``) found without the library's roots: the best of ``turns``
    angles, and golden sections within one step of the best three."""
    c, plane = m[0, 1:], m[1:, 1:]
    h = np.outer(c, c) - nu2 * plane

    def f(alpha):
        sin, cos = np.sin(alpha), np.cos(alpha)

        def quadratic(x):
            return x[0, 0] * sin * sin - (x[0, 1] + x[1, 0]) * sin * cos + x[1, 1] * cos * cos

        return np.maximum(m[0, 0] - nu2 - quadratic(plane), 0.0) ** 2 + 4.0 * quadratic(h)

    step = np.pi / turns
    grid = np.arange(turns) * step
    values = f(grid)
    lo = grid[np.argsort(values)[-3:]] - step
    hi = lo + 2.0 * step
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(sections):
        # keep the part of each bracket that holds the larger value, and the inner point in it
        rising = f1 < f2
        lo, hi = np.where(rising, x1, lo), np.where(rising, hi, x2)
        inner, f_inner = np.where(rising, x2, x1), np.where(rising, f2, f1)
        new = np.where(rising, lo + golden * (hi - lo), hi - golden * (hi - lo))
        f_new = f(new)
        x1, f1 = np.where(rising, inner, new), np.where(rising, f_inner, f_new)
        x2, f2 = np.where(rising, new, inner), np.where(rising, f_new, f_inner)
    return max(values.max(), f1.max(), f2.max())


def spin_flip_mixture(state, weight):
    """``state`` mixed with its spin flip, which scales n and m by ``weight`` and keeps T."""
    flip = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    rho = state.matrix
    return bb.validate_state(
        0.5 * (1 + weight) * rho + 0.5 * (1 - weight) * (flip @ rho.conj() @ flip)
    )


def boundary_weight(m, nu2, steps=40):
    """The spin-flip weight in (0, 1] at which the criterion's maximum crosses 0:
    scaling n by a weight w scales nu2 by w^2, and the maximum falls as w grows."""
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if criterion_max(m, mid * mid * nu2, turns=360) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


class TestFlatPath:
    """The closed-form flat test of ``_flat._is_flat`` and the flat path of
    ``optimize_excess_sum``: a flat state's profile F(alpha) equals the
    double-ridge sum D0 = tr M - A for every alpha."""

    # (seed, rank) of flat states whose spin-flip mixtures are tuned towards
    # the boundary of the flat set
    TUNED = [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 4), (2, 1), (4, 3), (5, 1), (7, 4), (9, 1), (13, 2),
        (14, 2),
    ]

    def test_verdict_agrees_with_a_dense_grid(self):
        flat_test = importlib.import_module("bellbound._flat")
        states = [bb.random_state(seed, 1 + seed % 4) for seed in range(400)]
        near = []
        for seed, rank in self.TUNED:
            state = bb.random_state(seed, rank)
            _, m, nu2 = ridge_terms(bb.decompose(state))
            weight = boundary_weight(m, nu2)
            # flat just above the boundary weight, not flat just below it
            near += [(spin_flip_mixture(state, weight * (1 + 1e-9)), True),
                     (spin_flip_mixture(state, weight * (1 - 1e-9)), False)]
        # ridge frames s' = cos(alpha) a + sin(alpha) b, s = cos(beta) n_hat + sin(beta) w
        # with w = cos(alpha) b - sin(alpha) a, on a grid of 90 x 181 angles
        alpha, beta = np.meshgrid(
            np.linspace(0.0, np.pi, 90, endpoint=False), np.linspace(-np.pi / 2, np.pi / 2, 181)
        )
        ca, sa, cb, sb = (x.reshape(-1, 1) for x in (np.cos(alpha), np.sin(alpha), np.cos(beta),
                                                      np.sin(beta)))
        counts = {"flat": 0, "not flat": 0, "flat with P > 0 somewhere": 0}
        for state, expected in [(s, None) for s in states] + near:
            form = bb.decompose(state)
            basis, m, nu2 = ridge_terms(form)
            flat = flat_test._is_flat(m, nu2)
            d0 = m[1, 1] + m[2, 2]
            n_hat, a, b = basis
            s = cb * n_hat + sb * (ca * b - sa * a)
            rise = _excess_sum(form, s, ca * a + sa * b).max() - d0
            if flat:
                # no frame of the grid beats the double ridge
                assert rise <= 1e-12
            top = criterion_max(m, nu2)
            margin = flat_test.FLAT_MARGIN * (np.trace(m) + nu2) ** 2
            # never called flat where f rises to 0; always where f stays below twice the margin
            assert not (flat and top > -margin)
            assert flat or top > -2.0 * margin
            if expected is not None:
                assert flat == expected
            counts["flat" if flat else "not flat"] += 1
            q = (m[0, 0] - nu2) * np.eye(2) - m[1:, 1:]
            counts["flat with P > 0 somewhere"] += flat and np.linalg.eigvalsh(q)[-1] > 0.0
        assert counts["flat"] >= 250 and counts["not flat"] >= 50
        assert counts["flat with P > 0 somewhere"] >= 100

    def test_flat_states_return_a_double_ridge_frame(self):
        flat_test = importlib.import_module("bellbound._flat")
        ridge = importlib.import_module("bellbound._ridge")
        flat = 0
        for seed in range(120):
            state = bb.random_state(seed, 1 + seed % 4)
            optimum = bb.optimize_excess_sum(state)
            if optimum.path != "flat":
                continue
            flat += 1
            form = bb.decompose(state)
            basis, m, nu2 = ridge_terms(form)
            d0 = m[1, 1] + m[2, 2]
            assert optimum.evaluations == 0
            assert abs(optimum.pi_s.axis @ form.n) < 1e-12
            assert abs(optimum.pi_s_prime.axis @ form.n) < 1e-12
            assert optimum.gap_bound == abs(d0 - optimum.check.sum_of_squares) < 1e-15
            # the search finds no more on a flat state, up to rounding
            frame, _ = ridge._search(form, basis, m, nu2)
            searched = bb.check_bound(
                state, *(bb.QubitMeasurement(x) for x in frame),
                *(bb.optimal_meter(state, bb.QubitMeasurement(x)) for x in frame),
            )
            assert searched.sum_of_squares <= optimum.check.sum_of_squares * (1 + 1e-12)
            assert flat_test._is_flat(m, nu2)
        assert flat >= 60

    def test_each_path_reports_the_gap_it_proves(self):
        certified = bb.optimize_excess_sum(bb.filter_normal_form(bb.random_state(3, 4)).state_out)
        assert certified.path == "certified"
        assert certified.gap_bound == max(certified.check.slack, 0.0) <= 1e-9
        searched = bb.optimize_excess_sum(bb.random_state(0, 4))
        assert searched.path == "searched"
        # a search proves only the cap (B_max/2)^2 - sum
        assert searched.gap_bound == searched.check.slack > 0.0
        flat = bb.optimize_excess_sum(bb.random_state(0, 1))
        assert flat.path == "flat"
        assert 0.0 <= flat.gap_bound < 1e-15 < flat.check.slack

    def test_top_eigenvalue_of_a_symmetric_2x2(self, rng):
        flat_test = importlib.import_module("bellbound._flat")
        for x, y, z in rng.normal(size=(200, 3)):
            expected = np.linalg.eigvalsh([[x, y], [y, z]])[-1]
            assert flat_test._top_eigenvalue(x, y, z) == pytest.approx(expected, abs=1e-14)

    def test_the_criterion_holds_symbolically(self):
        sp = pytest.importorskip("sympy")
        flat_test = importlib.import_module("bellbound._flat")
        alpha, beta, theta = sp.symbols("alpha beta theta", real=True)
        a, nu, c1, c2, p11, p21, p22 = sp.symbols("A nu c1 c2 p11 p21 p22", real=True)
        w = sp.Matrix([-sp.sin(alpha), sp.cos(alpha)])
        c = sp.Matrix([c1, c2])
        plane = sp.Matrix([[p11, p21], [p21, p22]])
        h = c * c.T - nu**2 * plane
        b, cc, whw = (w.T * c)[0], (w.T * plane * w)[0], (w.T * h * w)[0]
        # the identity that turns the test on B and C into a quadratic form in w
        assert sp.expand((2 * b) ** 2 - 4 * nu**2 * cc - 4 * whw) == 0
        # squaring sqrt(q) <= sqrt(C) + nu cos(beta) leaves cos(beta) times the linear test
        big_b, big_c = sp.symbols("B C", positive=True)
        q = a * sp.cos(beta) ** 2 + 2 * big_b * sp.cos(beta) * sp.sin(beta)
        q += big_c * sp.sin(beta) ** 2
        p = a - big_c - nu**2
        linear = 2 * nu * sp.sqrt(big_c) - p * sp.cos(beta) - 2 * big_b * sp.sin(beta)
        squared = (sp.sqrt(big_c) + nu * sp.cos(beta)) ** 2 - q - sp.cos(beta) * linear
        assert sp.simplify(sp.expand(squared)) == 0
        # the Fourier terms of P and w^T H w in 2 alpha
        p0, p1, p2, q0, q1, q2 = flat_test._flat_terms(
            a, nu**2, p11, p21, p22, h[0, 0], h[1, 0], h[1, 1]
        )
        two = 2 * alpha
        for series, target in [
            (p0 + p1 * sp.cos(two) + p2 * sp.sin(two), a - cc - nu**2),
            (q0 + q1 * sp.cos(two) + q2 * sp.sin(two), whw),
        ]:
            assert sp.expand((series - target).rewrite(sp.exp)) == 0
        # the quartic is (1 + t^2)^2 g'(theta) at t = tan(theta / 2), g = P^2 + 4 w^T H w
        x0, x1, x2, y0, y1, y2 = sp.symbols("p0 p1 p2 q0 q1 q2", real=True)
        g = (x0 + x1 * sp.cos(theta) + x2 * sp.sin(theta)) ** 2
        g += 4 * (y0 + y1 * sp.cos(theta) + y2 * sp.sin(theta))
        t = sp.symbols("t", real=True)
        half_angle = {sp.cos(theta): (1 - t**2) / (1 + t**2), sp.sin(theta): 2 * t / (1 + t**2)}
        slope = (1 + t**2) ** 2 * sp.diff(g, theta).subs(half_angle)
        quartic = flat_test._slope_quartic(x0, x1, x2, y1, y2)
        assert sp.cancel(slope - sum(k * t ** (4 - j) for j, k in enumerate(quartic))) == 0
