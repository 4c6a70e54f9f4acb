import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqclab.algebras import (
    AlgebraSpec,
    canonical_basis,
    diagonal_algebra,
    full_matrix_algebra,
    has_trace_vector,
    is_separating,
    is_trace_vector,
    max_entangled_trace_vector,
    project_onto_algebra,
    projection_superoperator,
    scalar_algebra,
    trace_vector_onb,
    trace_vector_wrt,
)
from pqclab.errors import (
    DimensionMismatch,
    Infeasible,
    NoTraceVectors,
    NotUnitalAlgebra,
    NotUnitVector,
    Rho0NotInAlgebra,
)
from pqclab.linalg import ToleranceConfig, max_abs_diff, partial_trace
from pqclab.rand import haar_unitary, random_block_algebra, random_unit_vector
from reference import (
    D32_SHAPES,
    hs_inner,
    matrices_equal,
    reference_max_entangled,
    reference_projection,
    tensor,
    vec,
)

DELTA2 = diagonal_algebra(2)
SCALAR2 = scalar_algebra(2)
FULL2 = full_matrix_algebra(2)
TWO_BY_M2 = AlgebraSpec(((2, 2),))

MIXED2 = np.eye(2) / 2


def _equator_state(theta):
    return np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2)


class TestSpecValidation:
    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            AlgebraSpec(())

    def test_rejects_non_positive_blocks(self):
        with pytest.raises(ValueError):
            AlgebraSpec(((0, 2),))

    @pytest.mark.parametrize(
        "blocks, zero_dim",
        [
            (((2.7, 1),), 0),
            (((2, 1.0),), 0),
            (((True, 1),), 0),
            (((2, np.bool_(True)),), 0),
            (((2, 1),), 0.5),
            (((2, 1),), 1.0),
            (((2, 1),), False),
            ((("2", 1),), 0),
        ],
    )
    def test_rejects_sizes_that_are_not_integers(self, blocks, zero_dim):
        with pytest.raises(ValueError, match="must be integers"):
            AlgebraSpec(blocks, zero_dim)

    @pytest.mark.parametrize("d", [2.0, True, np.bool_(False), "2"])
    def test_diagonal_algebra_rejects_dimensions_that_are_not_integers(self, d):
        with pytest.raises(ValueError, match="must be integers"):
            diagonal_algebra(d)

    @pytest.mark.parametrize("blocks", [None, "ab", ((1,),), ((1, 2, 3),), 5, [(1, 1), 2]])
    def test_rejects_blocks_that_are_not_pairs(self, blocks):
        with pytest.raises(ValueError, match="blocks must be"):
            AlgebraSpec(blocks)

    def test_accepts_numpy_integer_sizes(self):
        alg = AlgebraSpec(((np.int64(2), np.int32(1)),), np.uint8(1))
        assert alg.blocks == ((2, 1),) and alg.zero_dim == 1 and alg.dim == 3
        assert all(type(x) is int for x in (*alg.blocks[0], alg.zero_dim))

    def test_rejects_non_unitary_basis_change(self):
        with pytest.raises(ValueError):
            AlgebraSpec(((1, 2),), 0, np.ones((2, 2)))
        # U^dag U overflows: it fails without a numpy warning
        with pytest.raises(ValueError, match="basis change fails"):
            AlgebraSpec(((1, 2),), 0, [[1e200, 1e200], [1e200, -1e200]])

    def test_rejects_wrong_size_basis_change(self):
        with pytest.raises(DimensionMismatch):
            AlgebraSpec(((1, 2),), 0, np.eye(3))

    def test_dimension_bookkeeping(self):
        alg = AlgebraSpec(((2, 2), (3, 1)), 1)
        assert alg.dim == 8
        assert alg.num_basis == 5
        assert not alg.is_unital
        assert alg.block_offsets() == [0, 4, 7]


class TestCanonicalBasis:
    def test_diagonal_algebra(self):
        b = canonical_basis(DELTA2)
        assert len(b) == 2
        assert matrices_equal(b[0], np.diag([1.0, 0.0]))
        assert matrices_equal(b[1], np.diag([0.0, 1.0]))

    def test_full_matrix_algebra(self):
        b = canonical_basis(FULL2)
        assert len(b) == 4
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = 1.0
        assert matrices_equal(b[1], expected)

    def test_scalar_algebra(self):
        (b,) = canonical_basis(SCALAR2)
        assert matrices_equal(b, np.eye(2))

    def test_multiplicity_two_block(self):
        b = canonical_basis(TWO_BY_M2)
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1.0
        assert matrices_equal(b[1], tensor(np.eye(2), e01))

    def test_respects_basis_change(self):
        u = haar_unitary(2, np.random.default_rng(3))
        b = canonical_basis(diagonal_algebra(2, u))
        assert matrices_equal(b[0], u.conj().T @ np.diag([1.0, 0.0]) @ u)

    @pytest.mark.parametrize("blocks", [((2, 2),), ((1, 2), (3, 1)), ((2, 1), (1, 3))])
    def test_hs_gram_is_diagonal_with_multiplicities(self, blocks):
        alg = AlgebraSpec(blocks, 0, haar_unitary(sum(m * n for m, n in blocks), np.random.default_rng(9)))
        b = canonical_basis(alg)
        mults = [m for m, n in alg.blocks for _ in range(n * n)]
        for i, x in enumerate(b):
            for j, y in enumerate(b):
                want = mults[i] if i == j else 0.0
                assert abs(hs_inner(x, y) - want) < 1e-12

    def test_basis_elements_lie_in_the_algebra(self):
        alg = AlgebraSpec(((2, 2), (1, 1)), 0, haar_unitary(5, np.random.default_rng(4)))
        for b in canonical_basis(alg):
            assert max_abs_diff(project_onto_algebra(alg, b), b) < 1e-12

    def test_closed_under_products_and_adjoints(self):
        alg = AlgebraSpec(((2, 2),), 0, haar_unitary(4, np.random.default_rng(5)))
        b = canonical_basis(alg)
        for x in b:
            assert max_abs_diff(project_onto_algebra(alg, x.conj().T), x.conj().T) < 1e-12
            for y in b:
                assert max_abs_diff(project_onto_algebra(alg, x @ y), x @ y) < 1e-12


class TestProjection:
    def test_diagonal_projection_drops_off_diagonals(self):
        x = np.array([[0.3, 5j], [2.0, 0.7]], dtype=complex)
        assert matrices_equal(project_onto_algebra(DELTA2, x), np.diag([0.3, 0.7]))

    @pytest.mark.parametrize("x", [np.eye(3), np.ones((2, 3))])
    def test_rejects_a_matrix_of_the_wrong_shape(self, x):
        with pytest.raises(DimensionMismatch):
            project_onto_algebra(DELTA2, x)

    def test_scalar_projection_averages_trace(self):
        x = np.array([[1.0, 9.0], [4.0, 3.0]], dtype=complex)
        assert matrices_equal(project_onto_algebra(SCALAR2, x), 2.0 * np.eye(2))

    @given(st.integers(0, 10**6))
    def test_multiplicity_block_averages_left_factor(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = tensor(np.eye(2) / 2, partial_trace(x, 2, 2, "left"))
        assert max_abs_diff(project_onto_algebra(TWO_BY_M2, x), expected) < 1e-12

    @given(
        st.integers(0, 10**6),
        st.sampled_from(
            [(((2, 2), (1, 1)), 0), (((3, 1), (1, 2), (2, 1)), 0), (((1, 2), (2, 2)), 2)]
        ),
    )
    def test_blocks_average_left_factor_under_basis_change(self, seed, shape):
        blocks, zero_dim = shape
        rng = np.random.default_rng(seed)
        d = sum(m * n for m, n in blocks) + zero_dim
        alg = AlgebraSpec(blocks, zero_dim, haar_unitary(d, rng))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert max_abs_diff(project_onto_algebra(alg, x), reference_projection(alg, x)) < 1e-12

    @given(st.integers(0, 10**6))
    def test_idempotent_and_hs_self_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        alg = random_block_algebra(rng, max_dim=8, admit_trace_vectors=None)
        d = alg.dim
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        px = project_onto_algebra(alg, x)
        assert max_abs_diff(project_onto_algebra(alg, px), px) < 1e-10
        lhs = hs_inner(px, y)
        rhs = hs_inner(x, project_onto_algebra(alg, y))
        assert abs(lhs - rhs) < 1e-10

    @given(st.integers(0, 10**6))
    def test_superoperator_agrees_with_direct_projection(self, seed):
        rng = np.random.default_rng(seed)
        alg = random_block_algebra(rng, max_dim=8, admit_trace_vectors=None)
        d = alg.dim
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = projection_superoperator(alg) @ vec(x)
        rhs = vec(project_onto_algebra(alg, x))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_contracts_hs_norm(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        px = project_onto_algebra(TWO_BY_M2, x)
        assert hs_inner(px, px).real <= hs_inner(x, x).real + 1e-12


class TestIsTraceVector:
    @given(st.floats(0.0, 2 * np.pi))
    def test_equator_family_passes_for_diagonal_algebra(self, theta):
        report = is_trace_vector(_equator_state(theta), DELTA2, MIXED2)
        assert report.passed
        assert report.max_violation <= 1e-9

    def test_pole_fails_for_diagonal_algebra(self):
        report = is_trace_vector(np.array([1.0, 0.0]), DELTA2, MIXED2)
        assert not report.passed
        assert abs(report.max_violation - 0.5) < 1e-12

    def test_full_matrix_algebra_rejects_everything(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert not is_trace_vector(random_unit_vector(2, rng), FULL2, MIXED2).passed

    def test_bell_vector_for_multiplicity_two_block(self):
        v = max_entangled_trace_vector(2, 2)
        assert is_trace_vector(v, TWO_BY_M2, np.eye(4) / 4).passed

    def test_respects_rho0(self):
        rho0 = np.diag([0.75, 0.25])
        good = np.array([np.sqrt(0.75), 0.5])
        assert is_trace_vector(good, DELTA2, rho0).passed
        assert not is_trace_vector(_equator_state(0.3), DELTA2, rho0).passed

    def test_rejects_non_unit_vectors(self):
        with pytest.raises(NotUnitVector):
            is_trace_vector(np.array([1.0, 1.0]), DELTA2, MIXED2)
        with pytest.raises(NotUnitVector):
            is_trace_vector(np.array([np.nan, 0.0]), DELTA2, MIXED2)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            is_trace_vector(np.array([1.0, 0.0, 0.0]), DELTA2, MIXED2)

    def test_rejects_mismatched_state(self):
        with pytest.raises(DimensionMismatch):
            is_trace_vector(np.array([1.0, 0.0]), DELTA2, np.eye(3) / 3)


class TestIsSeparating:
    def test_equator_state_separates_diagonals(self):
        assert is_separating(_equator_state(0.0), DELTA2)

    def test_pole_does_not_separate_diagonals(self):
        assert not is_separating(np.array([1.0, 0.0]), DELTA2)

    def test_bell_vector_separates_multiplicity_block(self):
        assert is_separating(max_entangled_trace_vector(2, 2), TWO_BY_M2)

    def test_nothing_separates_full_matrix_algebra_short_of_rank(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            assert not is_separating(random_unit_vector(2, rng), FULL2)

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [1.0, np.inf], [0.5, complex(0.5, np.nan)]])
    def test_rejects_non_finite_vectors(self, v):
        with pytest.raises(ValueError, match="NaN or Inf"):
            is_separating(np.array(v), DELTA2)

    def test_rejects_wrong_length(self):
        with pytest.raises(DimensionMismatch):
            is_separating(np.array([1.0, 0.0, 0.0]), DELTA2)


class TestExistence:
    def test_admitting_shapes(self):
        assert has_trace_vector(DELTA2)
        assert has_trace_vector(SCALAR2)
        assert has_trace_vector(TWO_BY_M2)
        assert has_trace_vector(AlgebraSpec(((3, 2), (1, 1))))

    def test_blocking_shapes(self):
        assert not has_trace_vector(FULL2)
        assert not has_trace_vector(AlgebraSpec(((1, 2), (3, 1))))

    def test_requires_unital(self):
        with pytest.raises(NotUnitalAlgebra):
            has_trace_vector(AlgebraSpec(((1, 1),), 1))


class TestMaxEntangled:
    def test_trivial_block(self):
        assert np.allclose(max_entangled_trace_vector(1, 1), [1.0])

    def test_bell_vector(self):
        v = max_entangled_trace_vector(2, 2)
        s = 1 / np.sqrt(2)
        assert np.allclose(v, [s, 0.0, 0.0, s])

    def test_rectangular_block(self):
        v = max_entangled_trace_vector(3, 2)
        alg = AlgebraSpec(((3, 2),))
        assert is_trace_vector(v, alg, np.eye(6) / 6).passed

    def test_rejects_thin_blocks(self):
        with pytest.raises(ValueError):
            max_entangled_trace_vector(1, 2)

    @pytest.mark.parametrize("m, n", [(0, 0), (-1, -2), (1, 0), (-1, 0)])
    def test_rejects_empty_and_negative_sizes(self, m, n):
        with pytest.raises(ValueError, match="need m >= n >= 1"):
            max_entangled_trace_vector(m, n)

    @pytest.mark.parametrize("m, n", [(2.0, 1), (2, 1.0), (True, 1), (2, np.bool_(True)), ("2", 1)])
    def test_rejects_sizes_that_are_not_integers(self, m, n):
        with pytest.raises(ValueError, match="must be integers"):
            max_entangled_trace_vector(m, n)

    def test_seeds_are_the_diagonal_loops_bit_for_bit(self):
        for m in range(1, 7):
            for n in range(1, m + 1):
                got = max_entangled_trace_vector(m, n)
                assert got.dtype == np.complex128
                assert got.tobytes() == reference_max_entangled(m, n).tobytes()


class TestOrthonormalBasis:
    def test_diagonal_algebra_gives_fourier_pair(self):
        onb = trace_vector_onb(DELTA2)
        s = 1 / np.sqrt(2)
        assert np.allclose(onb[0], [s, s])
        assert np.allclose(onb[1], [s, -s])

    def test_scalar_algebra_gives_standard_basis(self):
        onb = trace_vector_onb(SCALAR2)
        assert np.allclose(onb[0], [1.0, 0.0])
        assert np.allclose(onb[1], [0.0, 1.0])

    @pytest.mark.parametrize(
        "alg",
        [
            DELTA2,
            SCALAR2,
            TWO_BY_M2,
            AlgebraSpec(((2, 1), (2, 2))),
            AlgebraSpec(((3, 2), (1, 1), (2, 1))),
        ],
    )
    def test_orbit_is_orthonormal_and_made_of_trace_vectors(self, alg):
        onb = trace_vector_onb(alg)
        assert len(onb) == alg.dim
        mat = np.array(onb)
        gram = mat.conj() @ mat.T
        assert max_abs_diff(gram, np.eye(alg.dim)) < 1e-9
        rho0 = np.eye(alg.dim) / alg.dim
        for v in onb:
            assert is_trace_vector(v, alg, rho0).passed
            assert is_separating(v, alg)

    @pytest.mark.parametrize("blocks", D32_SHAPES)
    def test_d32_basis_is_orthonormal_to_rounding(self, blocks):
        alg = AlgebraSpec(blocks, 0, haar_unitary(32, np.random.default_rng(len(blocks))))
        mat = np.array(trace_vector_onb(alg))
        assert max_abs_diff(mat.conj() @ mat.T, np.eye(32)) <= 1e-14
        rho0 = np.eye(32) / 32
        for v in mat:
            assert is_trace_vector(v, alg, rho0).passed
            assert is_separating(v, alg)

    def test_works_under_basis_change(self):
        u = haar_unitary(4, np.random.default_rng(6))
        alg = AlgebraSpec(((2, 2),), 0, u)
        rho0 = np.eye(4) / 4
        for v in trace_vector_onb(alg):
            assert is_trace_vector(v, alg, rho0).passed

    def test_refuses_thin_blocks(self):
        with pytest.raises(NoTraceVectors):
            trace_vector_onb(FULL2)

    def test_refuses_non_unital(self):
        with pytest.raises(NotUnitalAlgebra):
            trace_vector_onb(AlgebraSpec(((2, 1),), 1))


class TestTraceVectorWrt:
    def test_diagonal_algebra_weighted_state(self):
        v = trace_vector_wrt(DELTA2, np.diag([0.75, 0.25]))
        assert np.allclose(np.abs(v), [np.sqrt(0.75), 0.5])
        assert is_trace_vector(v, DELTA2, np.diag([0.75, 0.25])).passed

    def test_scalar_algebra_any_admissible_state(self):
        for d in (2, 3):
            alg = scalar_algebra(d)
            v = trace_vector_wrt(alg, np.eye(d) / d)
            assert is_trace_vector(v, alg, np.eye(d) / d).passed

    def test_full_matrix_algebra_rank_one_state(self):
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        v = trace_vector_wrt(FULL2, rho0)
        assert is_trace_vector(v, FULL2, rho0).passed

    def test_full_matrix_algebra_mixed_state_is_infeasible(self):
        with pytest.raises(Infeasible):
            trace_vector_wrt(FULL2, MIXED2)

    def test_no_rank_above_the_cutoff_is_infeasible(self):
        # both block weights of I/2 are 0.5, which atol = 0.5 does not count
        with pytest.raises(Infeasible, match="rank cutoff atol = 0.5"):
            trace_vector_wrt(DELTA2, np.eye(2) / 2, ToleranceConfig(0.5))

    def test_rejects_states_outside_the_algebra(self):
        off = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        with pytest.raises(Rho0NotInAlgebra):
            trace_vector_wrt(DELTA2, off)

    def test_rejects_non_unital(self):
        with pytest.raises(NotUnitalAlgebra):
            trace_vector_wrt(AlgebraSpec(((2, 1),), 1), np.eye(3) / 3)

    @pytest.mark.parametrize("blocks", [((4, 2), (2, 2)), ((3, 2), (1, 1)), ((8, 2), (16, 1))])
    def test_maximally_mixed_is_the_first_basis_vector(self, blocks):
        d = sum(m * n for m, n in blocks)
        alg = AlgebraSpec(blocks, 0, haar_unitary(d, np.random.default_rng(d)))
        v = trace_vector_wrt(alg, np.eye(d) / d)
        assert max_abs_diff(v, trace_vector_onb(alg)[0]) <= 1e-15

    @pytest.mark.parametrize("blocks", [((4, 2), (2, 2)), ((3, 2),), ((2, 2), (3, 3), (2, 1))])
    def test_continuous_in_the_basis_change_at_degenerate_weights(self, blocks):
        # rho0 = 1/d makes every block weight a multiple of 1, whose eigenbasis
        # rounding decides; the vector must not follow it
        d = sum(m * n for m, n in blocks)
        rng = np.random.default_rng(d)
        u = haar_unitary(d, rng)
        v = trace_vector_wrt(AlgebraSpec(blocks, 0, u), np.eye(d) / d)
        for _ in range(5):
            h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            nudged = u @ (np.eye(d) + 1e-14 * (h - h.conj().T))
            got = trace_vector_wrt(AlgebraSpec(blocks, 0, nudged), np.eye(d) / d)
            assert max_abs_diff(got, v) <= 1e-12

    @given(st.integers(0, 10**6))
    def test_maximally_mixed_always_feasible_when_vectors_exist(self, seed):
        rng = np.random.default_rng(seed)
        alg = random_block_algebra(rng, max_dim=8, admit_trace_vectors=True)
        rho0 = np.eye(alg.dim) / alg.dim
        v = trace_vector_wrt(alg, rho0)
        assert is_trace_vector(v, alg, rho0).passed


class TestStructuralInvariants:
    def test_direct_sum_weights(self):
        # per-block maximally entangled pieces weighted by sqrt(m n / dim)
        alg = AlgebraSpec(((2, 2), (3, 1)))
        v = np.concatenate(
            [
                np.sqrt(4 / 7) * max_entangled_trace_vector(2, 2),
                np.sqrt(3 / 7) * max_entangled_trace_vector(3, 1),
            ]
        )
        assert is_trace_vector(v, alg, np.eye(7) / 7).passed

    @pytest.mark.parametrize("seed", range(4))
    def test_unitary_covariance(self, seed):
        rng = np.random.default_rng(seed)
        alg = random_block_algebra(rng, max_dim=6, admit_trace_vectors=True)
        d = alg.dim
        rho0 = np.eye(d) / d
        v = trace_vector_onb(alg)[0]
        w = haar_unitary(d, rng)
        conjugated = AlgebraSpec(alg.blocks, 0, alg.basis_change @ w.conj().T)
        assert is_trace_vector(w @ v, conjugated, rho0).passed
