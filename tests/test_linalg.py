import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqclab.errors import DimensionMismatch
from pqclab.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _row_norms,
    as_cmatrix,
    is_hermitian,
    is_psd,
    max_abs_diff,
    nullspace_basis,
    partial_trace,
)
from pqclab.channels import DensityOperator
from pqclab.rand import haar_unitary
from reference import hs_inner, matrices_equal, reference_is_psd, tensor, vec

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_matrix(seed, n=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestTensor:
    def test_identities(self):
        assert matrices_equal(tensor(np.eye(2), np.eye(3)), np.eye(6))

    def test_diagonal_blocks(self):
        out = tensor(np.diag([1.0, 2.0]), np.eye(2))
        assert matrices_equal(out, np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_sigma_x_pair_flips_both_qubits(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        out = tensor(SX, SX) @ ket00
        assert np.allclose(out, [0, 0, 0, 1])

    @given(st.integers(0, 10**6))
    def test_mixed_product_rule(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        c, d = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        lhs = tensor(a, c) @ tensor(b, d)
        rhs = tensor(a @ b, c @ d)
        assert max_abs_diff(lhs, rhs) < 1e-12


class TestPartialTrace:
    def test_identity_left(self):
        assert matrices_equal(partial_trace(np.eye(4), 2, 2, "left"), 2 * np.eye(2))

    def test_bell_state_marginal(self):
        phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(phi, phi.conj())
        assert matrices_equal(partial_trace(rho, 2, 2, "left"), np.eye(2) / 2)
        assert matrices_equal(partial_trace(rho, 2, 2, "right"), np.eye(2) / 2)

    @given(st.integers(0, 10**6))
    def test_product_state_factorizes(self, seed):
        rng = np.random.default_rng(seed)
        a = _random_matrix(seed, 2)
        b = _random_matrix(seed + 1, 3)
        x = tensor(a, b)
        assert max_abs_diff(partial_trace(x, 2, 3, "left"), np.trace(a) * b) < 1e-10
        assert max_abs_diff(partial_trace(x, 2, 3, "right"), np.trace(b) * a) < 1e-10

    @given(st.integers(0, 10**6))
    def test_preserves_trace(self, seed):
        x = _random_matrix(seed, 6)
        for side in ("left", "right"):
            assert abs(np.trace(partial_trace(x, 2, 3, side)) - np.trace(x)) < 1e-10

    def test_rejects_bad_dims(self):
        with pytest.raises(Exception):
            partial_trace(np.eye(4), 3, 2, "left")

    @pytest.mark.parametrize("side", ["middle", "Left", None])
    def test_rejects_a_bad_side(self, side):
        with pytest.raises(ValueError, match="side must be"):
            partial_trace(np.eye(4), 2, 2, side)


class TestNullspace:
    def test_zero_matrix(self):
        basis = nullspace_basis(np.zeros((3, 3)), DEFAULT_TOL)
        assert len(basis) == 3

    def test_full_rank(self):
        assert nullspace_basis(np.eye(3), DEFAULT_TOL) == []

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, np.nan)])
    def test_non_finite_entries_raise(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            nullspace_basis(np.array([[bad, 0], [0, 1]]))

    @pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2)), np.float64(1.0)])
    def test_rejects_input_that_is_not_2d(self, m):
        with pytest.raises(DimensionMismatch):
            nullspace_basis(m)

    def test_empty_matrix_has_an_empty_basis(self):
        assert nullspace_basis(np.zeros((0, 0))) == []

    def test_rank_deficient_diagonal(self):
        basis = nullspace_basis(np.diag([0.0, 0.5, 0.5]), DEFAULT_TOL)
        assert len(basis) == 1
        assert abs(abs(basis[0][0]) - 1.0) < 1e-12

    @given(st.integers(0, 10**6), st.integers(0, 3))
    def test_annihilation_and_orthonormality(self, seed, rank_drop):
        n = 4
        m = _random_matrix(seed, n)
        if rank_drop:
            u, s, vh = np.linalg.svd(m)
            s[n - rank_drop:] = 0.0
            m = u @ np.diag(s) @ vh
        basis = nullspace_basis(m, DEFAULT_TOL)
        assert len(basis) >= rank_drop
        if basis:
            stack = np.array(basis)
            gram = stack.conj() @ stack.T
            assert max_abs_diff(gram, np.eye(len(basis))) < 1e-10
            scale = max(1.0, np.linalg.norm(m, 2))
            assert np.max(np.abs(m @ stack.T)) < 10 * DEFAULT_TOL.atol * scale


class TestHermitianPsd:
    def test_pauli_matrices(self):
        assert is_hermitian(SX) and is_hermitian(SY) and is_hermitian(SZ)
        assert is_psd(np.eye(2))
        assert not is_psd(SZ)

    @given(st.integers(0, 10**6))
    def test_gram_matrices_are_psd(self, seed):
        v = _random_matrix(seed, 3)
        assert is_psd(v @ v.conj().T)

    def test_non_hermitian_is_not_psd(self):
        assert not is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # Hermitian within atol counts; beyond it does not, whatever the spectrum
        assert is_psd(np.array([[1.0, 5e-10], [0.0, 1.0]]))
        assert not is_psd(np.array([[1.0, 2e-9], [0.0, 1.0]]))
        assert not is_psd(np.array([[1.0, 1j], [1j, 1.0]]))

    def test_non_square_is_not_hermitian(self):
        assert not is_hermitian(np.ones((2, 3)))
        assert not is_hermitian(np.zeros((3, 1)))

    def test_non_square_is_not_psd(self):
        assert not is_psd(np.ones((2, 3)))
        assert not is_psd(np.zeros((3, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_entries_raise(self, bad):
        m = np.eye(3, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError):
            is_psd(m)
        with pytest.raises(ValueError):
            is_psd(m[:2])  # checked before the shape

    def test_rejects_wrong_ndim_and_accepts_empty(self):
        from pqclab.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            is_psd(np.ones(4))
        assert is_psd(np.zeros((0, 0)))

    def test_eigenvalue_threshold(self):
        assert is_psd(np.diag([1.0, -5e-10]))
        assert not is_psd(np.diag([1.0, -2e-9]))


def _rotated(evals, rng):
    """U diag(evals) U^dag for a Haar U."""
    u = haar_unitary(len(evals), rng)
    return (u * evals) @ u.conj().T


class TestPsdNearThreshold:
    """is_psd against the eigvalsh reference, with one eigenvalue 0.1%
    inside or outside -atol."""

    SIZES = [2, 16, 128, 256]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_verdict_is_the_eigenvalue_one(self, n, side):
        rng = np.random.default_rng(n)
        evals = rng.uniform(0.0, 1.0, n)
        evals[0] = -DEFAULT_TOL.atol * side
        m = _rotated(evals, rng)
        assert is_psd(m) is reference_is_psd(m) is (side < 1)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("side", [1 - 1e-3, 1 + 1e-3])
    def test_density_operator_takes_the_same_verdict(self, n, side):
        rng = np.random.default_rng(300 + n)
        evals = rng.uniform(0.0, 1.0, n)
        evals[0] = -DEFAULT_TOL.atol * side
        evals[1:] *= (1.0 - evals[0]) / evals[1:].sum()  # unit trace
        m = _rotated(evals, rng)
        assert reference_is_psd(m) is (side < 1)
        if side < 1:
            assert DensityOperator(m).dim == n
        else:
            with pytest.raises(ValueError, match="PSD"):
                DensityOperator(m)


class TestHsInner:
    def test_identity_norm(self):
        assert abs(hs_inner(np.eye(2), np.eye(2)) - 2.0) < 1e-15

    def test_pauli_orthogonality(self):
        assert abs(hs_inner(SX, SY)) < 1e-15
        assert abs(hs_inner(SX, SZ)) < 1e-15

    @given(st.integers(0, 10**6))
    def test_conjugate_symmetry_and_positivity(self, seed):
        a = _random_matrix(seed, 3)
        b = _random_matrix(seed + 1, 3)
        assert abs(hs_inner(a, b) - np.conj(hs_inner(b, a))) < 1e-10
        assert hs_inner(a, a).real > 0
        assert abs(hs_inner(a, a).imag) < 1e-12


class TestVecUnvec:
    def test_row_major_order(self):
        x = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vec(x), np.array([1, 2, 3, 4], dtype=complex))


class TestValidation:
    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(atol=0.0)
        with pytest.raises(ValueError):
            ToleranceConfig(atol=-1e-9)

    @pytest.mark.parametrize("atol", [True, np.bool_(True)])
    def test_tolerance_must_not_be_a_bool(self, atol):
        with pytest.raises(ValueError, match="must be a positive and finite number"):
            ToleranceConfig(atol=atol)

    @pytest.mark.parametrize("atol", ["1e-9", 1e-9 + 0j, None, [1e-9]])
    def test_tolerance_must_be_a_real_number(self, atol):
        with pytest.raises(ValueError, match="atol must be a positive and finite number"):
            ToleranceConfig(atol=atol)

    def test_as_cmatrix_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_cmatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("a, b", [(np.eye(2), np.eye(3)), (np.eye(2), np.ones(4))])
    def test_max_abs_diff_rejects_mismatched_shapes(self, a, b):
        with pytest.raises(DimensionMismatch, match="shape mismatch"):
            max_abs_diff(a, b)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 20, 33])
    def test_row_norms_of_a_stack_are_each_row_alone(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((40, d)) + 1j * rng.standard_normal((40, d))
        norms = _row_norms(a)
        assert all(_row_norms(a[i : i + 1])[0] == norms[i] for i in range(40))
        # a strided view gives the bits of its contiguous copy
        assert np.array_equal(_row_norms(a[::2]), norms[::2])
        assert np.allclose(norms, np.linalg.norm(a, axis=1), rtol=1e-14, atol=0)

    def test_as_cmatrix_rejects_wrong_ndim(self):
        from pqclab.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            as_cmatrix(np.zeros(4))
