"""Tests for state validation, Bloch decomposition, unitary maps, and measurements."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bellbound as bb
from bellbound.core import COMPLEMENTARITY_TOL, _analyzer_directions, _unit_axes
from conftest import (
    PAULI, I2, axis_projectors, polarization_ket, quaternion_rotation, random_unitary
)

E3 = np.array([0.0, 0.0, 1.0])


# The Bloch observables sigma_k x 1, 1 x sigma_l and sigma_k x sigma_l as one
# stack of 15, and their einsum: the oracle for core._correlation_stack.
BLOCH_OPS = np.stack(
    [np.kron(s, I2) for s in PAULI]
    + [np.kron(I2, s) for s in PAULI]
    + [np.kron(a, b) for a in PAULI for b in PAULI]
)


def bloch_oracle(rho):
    """``n`` (N, 3), ``m`` (N, 3) and ``T`` (N, 3, 3) of a stack of states."""
    coefficients = np.einsum("aij,Nji->Na", BLOCH_OPS, rho).real
    return coefficients[:, :3], coefficients[:, 3:6], coefficients[:, 6:].reshape(-1, 3, 3)


def singlet_matrix():
    ket = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return np.outer(ket, ket.conj())


class TestValidateState:
    def test_identity_quarter_is_valid(self):
        state = bb.validate_state(np.eye(4) / 4)
        np.testing.assert_allclose(state.matrix, np.eye(4) / 4)

    def test_singlet_projector_is_valid(self):
        state = bb.validate_state(singlet_matrix())
        assert abs(np.trace(state.matrix) - 1) < 1e-14

    def test_trace_error_reported_before_positivity(self):
        # violates both trace and positivity; trace must win
        with pytest.raises(bb.TraceNotOne):
            bb.validate_state(np.diag([0.5, 0.7, -0.05, -0.05]))

    def test_not_positive(self):
        with pytest.raises(bb.NotPositive) as err:
            bb.validate_state(np.diag([0.55, 0.55, -0.05, -0.05]))
        assert err.value.min_eigenvalue == pytest.approx(-0.05)

    def test_not_hermitian_names_magnitude(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.3
        with pytest.raises(bb.NotHermitian) as err:
            bb.validate_state(m)
        assert err.value.deviation == pytest.approx(0.3)

    def test_tiny_asymmetry_is_symmetrized(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] += 1e-12
        state = bb.validate_state(m)
        np.testing.assert_allclose(state.matrix, state.matrix.conj().T)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            bb.validate_state(np.eye(2) / 2)

    @pytest.mark.parametrize(
        "entries, error",
        [
            # the symmetrized off-diagonal entry overflows to inf
            ({(0, 0): 0.5, (1, 1): 0.5, (0, 1): 1e308, (1, 0): 1e308}, bb.NotPositive),
            # the difference from the adjoint overflows
            ({(0, 0): 0.5, (1, 1): 0.5, (0, 1): 1e308, (1, 0): -1e308}, bb.NotHermitian),
            # the trace overflows to NaN
            ({(0, 0): 1e308, (1, 1): 1e308, (2, 2): -1e308, (3, 3): -1e308}, bb.TraceNotOne),
        ],
    )
    def test_entries_near_the_float_limit_fail_without_warning(self, entries, error):
        m = np.zeros((4, 4), dtype=complex)
        for index, value in entries.items():
            m[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                bb.validate_state(m)


class TestBlochDecomposition:
    def test_singlet_is_isotropic(self):
        form = bb.decompose(bb.validate_state(singlet_matrix()))
        np.testing.assert_allclose(form.n, 0, atol=1e-14)
        np.testing.assert_allclose(form.m, 0, atol=1e-14)
        np.testing.assert_allclose(form.T, -np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("p", [0.82, 0.45, -0.3, 1.0])
    def test_werner_correlation_matrix(self, p):
        form = bb.decompose(bb.werner(p))
        np.testing.assert_allclose(form.T, -p * np.eye(3), atol=1e-14)
        np.testing.assert_allclose(form.n, 0, atol=1e-14)

    def test_product_state(self):
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        form = bb.decompose(bb.validate_state(hh))
        np.testing.assert_allclose(form.n, E3, atol=1e-14)
        np.testing.assert_allclose(form.m, E3, atol=1e-14)
        np.testing.assert_allclose(form.T, np.outer(E3, E3), atol=1e-14)

    def test_recompose_trivials(self):
        zero = bb.BlochForm(np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        np.testing.assert_allclose(bb.recompose(zero).matrix, np.eye(4) / 4)
        singlet_form = bb.BlochForm(np.zeros(3), np.zeros(3), -np.eye(3))
        np.testing.assert_allclose(bb.recompose(singlet_form).matrix, singlet_matrix(), atol=1e-12)

    def test_recompose_rejects_unphysical(self):
        with pytest.raises(bb.NotPositive):
            bb.recompose(bb.BlochForm(np.zeros(3), np.zeros(3), -1.2 * np.eye(3)))

    def test_unvalidated_non_hermitian_matrix_is_rejected(self):
        # a state validates itself, so decompose never sees this matrix
        matrix = np.eye(4, dtype=complex) / 4
        matrix[0, 0] += 0.1j
        with pytest.raises(bb.NotHermitian):
            bb.TwoQubitState(matrix)

    def test_correlation_stack_matches_the_15_operator_einsum_bit_for_bit(self):
        from bellbound.core import _correlation_stack, _validate_stack
        from bellbound.verify import _draw_block

        for seed in (1, 2, 3):
            rho = _validate_stack(_draw_block(seed, np.arange(2000))[0])
            stacks = [rho] + [rho[i : i + 1] for i in range(0, 2000, 40)]
            for stack in stacks:
                corr = _correlation_stack(stack)
                n, m, t = bloch_oracle(stack)
                assert corr.shape == (len(stack), 4, 4)
                assert np.array_equal(corr[:, 1:, 0], n)
                assert np.array_equal(corr[:, 0, 1:], m)
                assert np.array_equal(corr[:, 1:, 1:], t)

    def test_correlation_stack_of_no_states(self):
        from bellbound.core import _correlation_stack

        assert _correlation_stack(np.empty((0, 4, 4), dtype=complex)).shape == (0, 4, 4)

    def test_form_r_layout(self):
        form = bb.decompose(bb.random_state(8, 3))
        corr = form.R
        assert corr[0, 0] == 1.0
        assert np.array_equal(corr[0, 1:], form.m)
        assert np.array_equal(corr[1:, 0], form.n)
        assert np.array_equal(corr[1:, 1:], form.T)
        assert not corr.flags.writeable

    def test_round_trip_1000_random_states(self):
        for seed in range(1000):
            state = bb.random_state(seed, 1 + seed % 4)
            form = bb.decompose(state)
            back = bb.recompose(form)
            assert np.max(np.abs(back.matrix - state.matrix)) <= 1e-15
            form2 = bb.decompose(back)
            assert np.max(np.abs(form2.T - form.T)) < 1e-12
            assert np.max(np.abs(form2.n - form.n)) < 1e-12
            assert np.max(np.abs(form2.m - form.m)) < 1e-12


class TestLocalUnitaries:
    def test_identity_leaves_state_unchanged(self):
        state = bb.random_state(5, 3)
        out = bb.apply_local_unitary(state, np.eye(2), np.eye(2))
        np.testing.assert_allclose(out.matrix, state.matrix, atol=1e-15)

    def test_singlet_invariant_under_u_tensor_u(self, rng):
        singlet = bb.validate_state(singlet_matrix())
        for _ in range(5):
            u = random_unitary(rng)
            out = bb.apply_local_unitary(singlet, u, u)
            np.testing.assert_allclose(out.matrix, singlet.matrix, atol=1e-12)

    def test_correlation_matrix_transforms_by_rotations(self, rng):
        # oracle: rotations obtained independently through the adjoint map
        for seed in range(10):
            state = bb.random_state(seed, 4)
            u_s, u_m = random_unitary(rng), random_unitary(rng)
            o_s = bb.rotation_of_unitary(u_s)
            o_m = bb.rotation_of_unitary(u_m)
            out = bb.apply_local_unitary(state, u_s, u_m)
            expected = o_s @ bb.decompose(state).T @ o_m.T
            assert np.max(np.abs(bb.decompose(out).T - expected)) < 1e-10

    def test_eigenvalues_preserved(self, rng):
        state = bb.random_state(11, 4)
        out = bb.apply_local_unitary(state, random_unitary(rng), random_unitary(rng))
        np.testing.assert_allclose(
            np.linalg.eigvalsh(out.matrix), np.linalg.eigvalsh(state.matrix), atol=1e-10
        )

    def test_rejects_non_unitary(self):
        with pytest.raises(bb.NotUnitary):
            bb.apply_local_unitary(bb.werner(0.5), np.diag([1.0, 0.5]), np.eye(2))


class TestRotationOfUnitary:
    def test_identity(self):
        np.testing.assert_allclose(bb.rotation_of_unitary(np.eye(2)), np.eye(3), atol=1e-15)

    def test_phase_gate_rotates_90_about_z(self):
        o = bb.rotation_of_unitary(np.diag([1.0, 1.0j]))
        expected = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(o, expected, atol=1e-14)

    def test_conjugation_identity_on_random_unitaries(self, rng):
        for _ in range(20):
            u = random_unitary(rng)
            o = bb.rotation_of_unitary(u)
            assert np.max(np.abs(o.T @ o - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(o) - 1.0) < 1e-10
            for k in range(3):
                conjugated = u @ PAULI[k] @ u.conj().T
                rotated = sum(o[j, k] * PAULI[j] for j in range(3))
                assert np.max(np.abs(conjugated - rotated)) < 1e-12


class TestUnitaryFromRotation:
    def test_identity(self):
        np.testing.assert_allclose(bb.unitary_from_rotation(np.eye(3)), np.eye(2), atol=1e-15)

    def test_z_rotation_90(self):
        o = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = np.diag([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)])
        np.testing.assert_allclose(bb.unitary_from_rotation(o), expected, atol=1e-14)

    def test_round_trip_random_rotations(self, rng):
        for _ in range(50):
            q = rng.normal(size=4)
            o = bb.rotation_from_quaternion(q)
            u = bb.unitary_from_rotation(o)
            assert np.max(np.abs(bb.rotation_of_unitary(u) - o)) < 1e-10

    def test_rejects_reflection(self):
        with pytest.raises(bb.NotRotation):
            bb.unitary_from_rotation(np.diag([1.0, 1.0, -1.0]))

    def test_rejects_non_orthogonal(self):
        with pytest.raises(bb.NotRotation):
            bb.unitary_from_rotation(np.eye(3) * 1.1)

    @pytest.mark.parametrize(
        "o", [np.full((3, 3), np.nan), np.diag([1.0, 1.0, np.nan]), np.full((3, 3), np.inf),
              np.eye(3) * 1e200],
    )
    def test_rejects_non_finite_and_overflowing_matrices_without_warning(self, o):
        # a NaN matrix once passed the orthogonality check and gave a NaN unitary
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(bb.NotRotation, match="O\\^T O"):
                bb.unitary_from_rotation(o)

    def test_rotation_from_quaternion_equals_the_scalar_formula(self, rng):
        scales = 10.0 ** rng.uniform(-150, 150, size=(2000, 1))
        for q in np.vstack([rng.normal(size=(2000, 4)), rng.normal(size=(2000, 4)) * scales]):
            o = bb.rotation_from_quaternion(q)
            assert o.shape == (3, 3) and o.tobytes() == quaternion_rotation(q).tobytes()

    @pytest.mark.parametrize(
        "q", [[0.0, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 0.0],
              [1e200, 1e200, 0.0, 0.0]],
    )
    def test_quaternion_without_a_finite_nonzero_norm_is_rejected_without_warning(self, q):
        # the zero quaternion once gave a NaN matrix and a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="quaternion norm must be finite and nonzero"):
                bb.rotation_from_quaternion(q)


class TestMeasurements:
    def test_polarization_angle_conventions(self):
        np.testing.assert_allclose(
            bb.measurement_from_polarization_angle(0.0).axis, [0, 0, 1], atol=1e-15
        )
        np.testing.assert_allclose(
            bb.measurement_from_polarization_angle(45.0).axis, [1, 0, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            bb.measurement_from_polarization_angle(22.5).axis,
            [np.sqrt(2) / 2, 0, np.sqrt(2) / 2],
            atol=1e-15,
        )

    def test_grid_axes_equal_the_scalar_formula_bit_for_bit(self):
        # the 0.1-degree grid and angles outside [0, 180), each axis
        # (sin 2theta, 0, cos 2theta) divided by its np.linalg.norm
        thetas = [round(0.1 * k, 10) for k in range(901)] + [-30.0, 200.5, 1e6]
        expected = []
        for theta in thetas:
            doubled = 2 * math.radians(theta % 180.0)
            axis = np.array([math.sin(doubled), 0.0, math.cos(doubled)])
            expected.append(axis / np.linalg.norm(axis))
        grid = _unit_axes(_analyzer_directions(thetas))
        assert grid.tobytes() == np.array(expected).tobytes()
        single = [bb.measurement_from_polarization_angle(theta).axis for theta in thetas]
        assert np.array(single).tobytes() == grid.tobytes()

    @given(st.floats(min_value=-720, max_value=720, allow_nan=False))
    @settings(max_examples=50, derandomize=True, deadline=None)
    def test_angle_taken_mod_180(self, theta):
        a = bb.measurement_from_polarization_angle(theta)
        b = bb.measurement_from_polarization_angle(theta % 180.0)
        assert np.max(np.abs(a.axis - b.axis)) < 1e-9

    def test_plus_outcome_projects_on_polarization_ket(self):
        for theta in (0.0, 22.5, 45.0, 67.5, 130.0):
            meas = bb.measurement_from_polarization_angle(theta)
            plus, _ = axis_projectors(meas.axis)
            ket = polarization_ket(theta)
            np.testing.assert_allclose(plus, np.outer(ket, ket.conj()), atol=1e-14)

    def test_projector_algebra(self, rng):
        for _ in range(10):
            v = rng.normal(size=3)
            meas = bb.QubitMeasurement(v / np.linalg.norm(v))
            plus, minus = axis_projectors(meas.axis)
            np.testing.assert_allclose(plus @ plus, plus, atol=1e-14)
            np.testing.assert_allclose(plus @ minus, 0 * plus, atol=1e-14)
            np.testing.assert_allclose(plus + minus, I2, atol=1e-14)

    def test_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            bb.QubitMeasurement(np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize(
        "axis",
        [
            [np.nan, 0.0, 0.0],
            [0.0, 0.6, np.nan],
            [np.inf, 0.0, 0.0],
            [1e308, 1e308, 0.0],
            [1e200, 0.0, 0.0],
            [1e-200, 0.0, 0.0],
        ],
    )
    def test_rejects_non_finite_and_overflowing_axes_without_warning(self, axis):
        # a NaN axis was once accepted as [nan, nan, nan]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="unit vector"):
                bb.QubitMeasurement(np.array(axis))

    def test_flipped_negates_the_axis_bit_for_bit(self):
        # Normalizing -axis again would move the last bit of about 1 axis in 120.
        directions = np.random.default_rng(26).normal(size=(20_000, 3))
        for direction in directions:
            pi = bb.QubitMeasurement(direction / np.linalg.norm(direction), degenerate=True)
            flipped = pi.flipped()
            assert flipped.axis.tobytes() == (-pi.axis).tobytes()
            assert flipped.degenerate and not flipped.axis.flags.writeable
            assert flipped.flipped().axis.tobytes() == pi.axis.tobytes()


class TestComplementarity:
    def test_hv_vs_xy(self):
        hv = bb.measurement_from_polarization_angle(0.0)
        xy = bb.measurement_from_polarization_angle(45.0)
        assert bb.are_complementary(hv, xy)
        assert bb.are_complementary(xy, hv)

    def test_same_basis_is_not_complementary(self):
        hv = bb.measurement_from_polarization_angle(0.0)
        assert not bb.are_complementary(hv, hv)
        assert not bb.are_complementary(hv, hv.flipped())

    def test_60_degree_axes(self):
        a = bb.QubitMeasurement(np.array([0.0, 0.0, 1.0]))
        angle = np.radians(60.0)
        b = bb.QubitMeasurement(np.array([np.sin(angle), 0.0, np.cos(angle)]))
        assert not bb.are_complementary(a, b)
        # projector-overlap oracle: all four overlaps in {0.75, 0.25}
        for pa in axis_projectors(a.axis):
            for pb in axis_projectors(b.axis):
                overlap = float(np.trace(pa @ pb).real)
                assert min(abs(overlap - 0.75), abs(overlap - 0.25)) < 1e-12

    @pytest.mark.parametrize(
        "dot, complementary",
        [
            (COMPLEMENTARITY_TOL, True),
            (np.nextafter(COMPLEMENTARITY_TOL, np.inf), False),
            (np.nan, False),
        ],
        ids=["at-tolerance", "one-ulp-above", "nan"],
    )
    def test_are_complementary_agrees_with_check_bound(self, dot, complementary):
        # b = (dot, 1, 0) has norm 1.0 in floating point, so a.b is exactly dot.
        # A NaN axis never passes QubitMeasurement, so both take a stand-in.
        a, b = (SimpleNamespace(axis=np.array(axis)) for axis in ([1.0, 0.0, 0.0], [dot, 1.0, 0.0]))
        if not np.isnan(dot):
            a, b = (bb.QubitMeasurement(pi.axis) for pi in (a, b))
            assert float(a.axis @ b.axis) == dot
        assert bb.are_complementary(a, b) is complementary
        meter = bb.QubitMeasurement(np.array([0.0, 0.0, 1.0]))
        if complementary:
            bb.check_bound(bb.werner(0.5), a, b, meter, meter)
        else:
            with pytest.raises(bb.NotComplementary):
                bb.check_bound(bb.werner(0.5), a, b, meter, meter)


class TestConditionalDecomposition:
    def test_werner_conditionals_match_partial_trace_oracle(self):
        p = 0.82
        state = bb.werner(p)
        hv = bb.measurement_from_polarization_angle(0.0)
        cd = bb.conditional_decompose(state, hv)
        # oracle: raw projected partial traces
        plus, _ = axis_projectors(np.array([0.0, 0.0, 1.0]))
        big = np.kron(plus, I2)
        w_oracle = float(np.trace(big @ state.matrix).real)
        assert abs(cd.w - w_oracle) < 1e-14
        assert abs(cd.w - 0.5) < 1e-14 and abs(cd.w_perp - 0.5) < 1e-14
        from conftest import SZ, partial_trace_signal

        rho_m_oracle = partial_trace_signal(big @ state.matrix @ big) / w_oracle
        np.testing.assert_allclose(cd.rho_M, rho_m_oracle, atol=1e-14)
        np.testing.assert_allclose(cd.rho_M, (I2 - p * SZ) / 2, atol=1e-14)
        np.testing.assert_allclose(cd.rho_M_perp, (I2 + p * SZ) / 2, atol=1e-14)

    def test_pure_signal_product_is_degenerate(self):
        rho_any = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]])
        state = bb.validate_state(np.kron(np.diag([1.0, 0.0]), rho_any))
        cd = bb.conditional_decompose(state, bb.measurement_from_polarization_angle(0.0))
        assert cd.degenerate
        assert abs(cd.w - 1.0) < 1e-14 and abs(cd.w_perp) < 1e-14
        np.testing.assert_allclose(cd.rho_M, rho_any, atol=1e-14)
        np.testing.assert_allclose(cd.rho_M_perp, 0 * I2, atol=1e-14)

    def test_maximally_mixed(self, rng):
        state = bb.validate_state(np.eye(4) / 4)
        v = rng.normal(size=3)
        cd = bb.conditional_decompose(state, bb.QubitMeasurement(v / np.linalg.norm(v)))
        assert abs(cd.w - 0.5) < 1e-14
        np.testing.assert_allclose(cd.rho_M, I2 / 2, atol=1e-14)
        np.testing.assert_allclose(cd.chi_M, 0 * I2, atol=1e-14)

    def test_reassembly_reproduces_state(self, rng):
        from bellbound.core import measurement_kets

        for seed in range(200):
            state = bb.random_state(seed, 1 + seed % 4)
            v = rng.normal(size=3)
            meas = bb.QubitMeasurement(v / np.linalg.norm(v))
            cd = bb.conditional_decompose(state, meas)
            plus, minus = measurement_kets(meas)
            rebuilt = (
                cd.w * np.kron(np.outer(plus, plus.conj()), cd.rho_M)
                + cd.w_perp * np.kron(np.outer(minus, minus.conj()), cd.rho_M_perp)
                + np.sqrt(cd.w * cd.w_perp)
                * (
                    np.kron(np.outer(plus, minus.conj()), cd.chi_M)
                    + np.kron(np.outer(minus, plus.conj()), cd.chi_M.conj().T)
                )
            )
            assert np.max(np.abs(rebuilt - state.matrix)) < 1e-10

    def test_axis_flip_swaps_roles(self, rng):
        state = bb.random_state(77, 4)
        v = rng.normal(size=3)
        meas = bb.QubitMeasurement(v / np.linalg.norm(v))
        cd = bb.conditional_decompose(state, meas)
        flipped = bb.conditional_decompose(state, meas.flipped())
        assert abs(cd.w - flipped.w_perp) < 1e-14
        np.testing.assert_allclose(cd.rho_M, flipped.rho_M_perp, atol=1e-13)
