import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pqclab import algebras, channels, condexp
from pqclab.algebras import (
    AlgebraSpec,
    diagonal_algebra,
    full_matrix_algebra,
    is_separating,
    is_trace_vector,
    project_onto_algebra,
    projection_superoperator,
    scalar_algebra,
    trace_vector_onb,
    trace_vector_wrt,
)
from pqclab.bloch import AllStates, GreatCircle, classify
from pqclab.channels import (
    Channel,
    DensityOperator,
    channels_equal,
    choi,
    compose,
    convex_mix,
    depolarizing,
    from_kraus,
    random_unitary,
    superoperator,
)
from pqclab.condexp import (
    PQCInstance,
    collective_noise_channel_n2,
    condexp_channel,
    is_pqc,
    private_states_certificate,
    verify_condexp_axioms,
)
from pqclab.errors import (
    DimensionMismatch,
    NotUnitalAlgebra,
    NotUnitVector,
    Rho0NotInAlgebra,
)
from pqclab.linalg import DEFAULT_TOL, ToleranceConfig, max_abs_diff, partial_trace
from pqclab.rand import (
    haar_unitary,
    random_block_algebra,
    random_density,
    random_ru_channel,
    random_unit_vector,
)
from reference import (
    D32_SHAPES,
    hs_inner,
    isometry_channel,
    matrices_equal,
    reference_axioms,
    reference_bimodule,
    reference_choi,
    reference_condexp,
    reference_gathered_axioms,
    reference_is_pqc,
    reference_is_separating,
    reference_projection_superoperator,
    reference_superoperator,
    reference_trace_vector_onb,
    reference_trace_vector_wrt,
    reference_trace_violation,
    tensor,
)

DELTA2 = diagonal_algebra(2)
SCALAR2 = scalar_algebra(2)
TWO_BY_M2 = AlgebraSpec(((2, 2),))

E_DELTA = condexp_channel(DELTA2)
MIXED2 = DensityOperator(np.eye(2) / 2)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
DEPHASING = random_unitary([0.5, 0.5], [np.eye(2), SZ])

# d = 32 axiom-check shapes: K = 32, 16, 4, 320 and 1024 = d^2 Kraus operators
D32_AXIOM_SHAPES = [((1, 1),) * 32, ((4, 8),), ((2, 16),), ((8, 2), (16, 1)), ((32, 1),)]


def _equator_state(theta):
    return np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2)


class TestCondexpChannel:
    def test_diagonal_action(self):
        x = np.array([[0.3, 2j], [1.0, 0.7]], dtype=complex)
        assert matrices_equal(E_DELTA.apply_matrix(x), np.diag([0.3, 0.7]))

    def test_kraus_list_is_minimal_for_diagonals(self):
        assert len(E_DELTA.kraus) == 2

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_scalar_algebra_gives_full_depolarizing(self, d):
        assert channels_equal(condexp_channel(scalar_algebra(d)), depolarizing(1.0, d))

    @given(st.integers(0, 10**6))
    def test_multiplicity_block_action(self, seed):
        rng = np.random.default_rng(seed)
        ch = condexp_channel(TWO_BY_M2)
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        expected = tensor(np.eye(2) / 2, partial_trace(x, 2, 2, "left"))
        assert max_abs_diff(ch.apply_matrix(x), expected) < 1e-10

    def test_agrees_with_projection_on_random_input(self):
        rng = np.random.default_rng(2)
        alg = random_block_algebra(rng, max_dim=6, admit_trace_vectors=None)
        ch = condexp_channel(alg)
        x = rng.standard_normal((alg.dim,) * 2) + 1j * rng.standard_normal((alg.dim,) * 2)
        assert max_abs_diff(ch.apply_matrix(x), project_onto_algebra(alg, x)) < 1e-10

    @pytest.mark.parametrize(
        "blocks",
        [
            ((2, 1), (1, 2)),
            ((2, 2), (1, 1)),
            ((3, 1), (1, 2), (2, 1)),
            ((1, 2), (1, 2)),
            ((2, 2), (3, 1)),
            ((1, 1), (1, 1), (1, 1)),
        ],
    )
    def test_closed_form_matches_choi_route(self, blocks):
        rng = np.random.default_rng(sum(m * n for m, n in blocks) + len(blocks))
        alg = AlgebraSpec(blocks, 0, haar_unitary(sum(m * n for m, n in blocks), rng))
        ch = condexp_channel(alg)
        assert len(ch.kraus) == sum(m * m for m, _ in blocks)
        assert channels_equal(ch, reference_condexp(alg))

    def test_kraus_order_is_block_by_block_then_row_major(self):
        blocks = ((2, 1), (3, 2))
        u = haar_unitary(8, np.random.default_rng(5))
        ch = condexp_channel(AlgebraSpec(blocks, 0, u))
        expected, off = [], 0
        for m, n in blocks:
            for a in range(m):
                for b in range(m):
                    unit = np.zeros((m, m))
                    unit[a, b] = 1.0
                    e = np.zeros((8, 8), dtype=complex)
                    e[off : off + m * n, off : off + m * n] = np.kron(unit, np.eye(n)) / np.sqrt(m)
                    expected.append(u.conj().T @ e @ u)
            off += m * n
        assert len(ch.kraus) == len(expected)
        for k, want in zip(ch.kraus, expected):
            assert max_abs_diff(k, want) < 1e-12

    def test_rejects_non_unital_algebras(self):
        with pytest.raises(NotUnitalAlgebra):
            condexp_channel(AlgebraSpec(((1, 1),), 1))

    def test_qubit_classification_bridge(self):
        out = classify(E_DELTA)
        assert isinstance(out, GreatCircle)
        assert np.allclose(out.normal, [0.0, 0.0, 1.0])
        assert isinstance(classify(condexp_channel(SCALAR2)), AllStates)


class TestAxioms:
    @pytest.mark.parametrize(
        "alg",
        [DELTA2, SCALAR2, scalar_algebra(3), scalar_algebra(4), TWO_BY_M2],
    )
    def test_conditional_expectations_pass(self, alg):
        report = verify_condexp_axioms(condexp_channel(alg), alg)
        assert report.passed
        assert report.fixes_subalgebra <= 1e-9
        assert report.bimodule <= 1e-9
        assert report.positive
        assert report.trace_preserving <= 1e-9

    def test_positivity_is_not_measured(self, monkeypatch):
        alg = _haar_algebra(((2, 2), (1, 1)), 0, np.random.default_rng(6))
        ch = condexp_channel(alg)

        def no_factorization(*_):
            raise AssertionError("positivity should come from the Kraus form")

        monkeypatch.setattr(np.linalg, "cholesky", no_factorization)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_factorization)
        assert verify_condexp_axioms(ch, alg).passed

    def test_positive_below_rounding(self):
        # this Choi matrix's smallest eigvalsh rounds to about -9e-17, below -atol
        alg = _haar_algebra(((2, 1), (1, 1)), 0, np.random.default_rng(1))
        report = verify_condexp_axioms(condexp_channel(alg), alg, ToleranceConfig(1e-17))
        assert report.positive is True
        assert not report.passed  # the residuals are at the 1e-15 level

    def test_identity_channel_is_not_the_diagonal_expectation(self):
        report = verify_condexp_axioms(from_kraus([np.eye(2)]), DELTA2)
        assert not report.passed
        assert report.fixes_subalgebra <= 1e-12  # identity fixes everything
        assert abs(report.bimodule - 1.0) < 1e-9  # but its range leaves the algebra

    def test_dephasing_is_not_the_scalar_expectation(self):
        report = verify_condexp_axioms(DEPHASING, SCALAR2)
        assert not report.passed
        assert abs(report.bimodule - 0.5) < 1e-9

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_condexp_axioms(E_DELTA, scalar_algebra(3))

    @pytest.mark.parametrize("basis_change", [None, haar_unitary(2, np.random.default_rng(4))])
    def test_zero_summand_rows_count(self, basis_change):
        # against M_1 (+) 0_1, both residuals below are largest at a column of
        # the zero summand, in block coordinates
        alg = AlgebraSpec(((1, 1),), 1, basis_change)
        u = alg.basis_change
        # E = id: E(b X) - b P(E(X)) for b = e00 is X[0, 1] e01
        report = verify_condexp_axioms(from_kraus([np.eye(2)]), alg)
        assert report.fixes_subalgebra <= 1e-12 and report.trace_preserving <= 1e-12
        assert abs(report.bimodule - 1.0) <= 1e-12
        assert not report.passed
        # E = R . R^dag in block coordinates, R a rotation by 0.1:
        # E(e00) - e00 = [[-sin^2, cos sin], [cos sin, sin^2]]
        c, s = np.cos(0.1), np.sin(0.1)
        rotation = u.conj().T @ np.array([[c, -s], [s, c]]) @ u
        report = verify_condexp_axioms(from_kraus([rotation]), alg)
        assert abs(report.fixes_subalgebra - c * s) <= 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_random_algebras_pass(self, seed):
        alg = random_block_algebra(np.random.default_rng(seed), max_dim=8, admit_trace_vectors=None)
        assert verify_condexp_axioms(condexp_channel(alg), alg).passed

    @pytest.mark.parametrize("blocks", D32_AXIOM_SHAPES)
    def test_d32_closed_forms_pass_and_haar_mixes_fail(self, blocks, monkeypatch):
        rng = np.random.default_rng(320 + len(blocks))
        alg = _haar_algebra(blocks, 0, rng)
        ch = condexp_channel(alg)
        record = _AxiomCheckRecord(monkeypatch)
        assert verify_condexp_axioms(ch, alg).passed
        assert record.calls == {"_kraus_product": 1, "choi": 0, "superoperator": 0}
        mixed = convex_mix([1 - 1e-3, 1e-3], [ch, from_kraus([haar_unitary(32, rng)])])
        report = verify_condexp_axioms(mixed, alg)
        assert report.positive and report.bimodule > 1e-6 and not report.passed

    def test_d32_diagonal_check_holds_no_copy_of_the_superoperator(self):
        # T' alone is d^4 complex entries, 16 MiB; a gathered copy of S' and
        # its absolute values would add 24 MiB more
        alg = _haar_algebra(((1, 1),) * 32, 0, np.random.default_rng(352))
        ch = condexp_channel(alg)
        tracemalloc.start()
        try:
            report = verify_condexp_axioms(ch, alg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 30 * 2**20

    @pytest.mark.parametrize(
        "alg",
        [DELTA2, SCALAR2, TWO_BY_M2],
    )
    def test_idempotence(self, alg):
        e = condexp_channel(alg)
        assert channels_equal(compose(e, e), e)

    @given(st.integers(0, 10**6))
    def test_hs_self_adjointness(self, seed):
        rng = np.random.default_rng(seed)
        alg = random_block_algebra(rng, max_dim=6, admit_trace_vectors=None)
        e = condexp_channel(alg)
        d = alg.dim
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = hs_inner(e.apply_matrix(x), y)
        rhs = hs_inner(x, e.apply_matrix(y))
        assert abs(lhs - rhs) < 1e-10


# (blocks, zero_dim) of 1-4 blocks with d <= 12; no unital shape here is a
# single block 1_m (x) M_n with m = 1 or n = 1, which a basis change fixes,
# so an independently rotated copy is a different algebra
HAAR_SHAPES = [
    (((2, 2),), 0),
    (((3, 2),), 0),
    (((2, 1), (1, 2)), 0),
    (((1, 3), (2, 1)), 0),
    (((2, 2), (1, 1), (1, 2)), 0),
    (((1, 1), (1, 1), (2, 1), (1, 3)), 0),
    (((1, 2), (1, 2), (1, 2), (2, 1)), 0),
    (((4, 2), (2, 2)), 0),
    (((6, 2),), 0),
    (((2, 2),), 3),
    (((1, 2), (2, 1)), 2),
    (((3, 1), (1, 2), (1, 1)), 4),
    (((2, 2), (1, 1), (1, 1), (2, 1)), 2),
]
UNITAL_SHAPES = [blocks for blocks, zero_dim in HAAR_SHAPES if zero_dim == 0]
ONB_SHAPES = [blocks for blocks in UNITAL_SHAPES if all(m >= n for m, n in blocks)]


def _haar_algebra(blocks, zero_dim, rng):
    d = sum(m * n for m, n in blocks) + zero_dim
    return AlgebraSpec(blocks, zero_dim, haar_unitary(d, rng))


class _AxiomCheckRecord:
    """Counts the Kraus products, Choi matrices and superoperators that
    axiom checks form."""

    NAMES = ("_kraus_product", "choi", "superoperator")

    def __init__(self, monkeypatch):
        self.reset()
        for name in self.NAMES:
            wrapped = self._counted(name, getattr(channels, name))
            monkeypatch.setattr(channels, name, wrapped)
            monkeypatch.setattr(condexp, name, wrapped, raising=False)

    def reset(self):
        self.calls = dict.fromkeys(self.NAMES, 0)

    def _counted(self, name, fn):
        def wrapper(*args):
            self.calls[name] += 1
            return fn(*args)

        return wrapper


class TestLoopReferences:
    """The single-product matrices and the linear-in-K bimodule check against
    the loop constructions they replace (tests/reference.py)."""

    @pytest.mark.parametrize("blocks", UNITAL_SHAPES)
    def test_superoperator_and_choi_match_kraus_loops(self, blocks):
        rng = np.random.default_rng(len(blocks) * 100 + sum(m * n for m, n in blocks))
        alg = _haar_algebra(blocks, 0, rng)
        d = alg.dim
        for ch in (
            condexp_channel(alg),
            random_ru_channel(d, 3, rng),
            isometry_channel(d, d - 1, 2, rng),
            isometry_channel(d - 1, d, 3, rng),
        ):
            assert max_abs_diff(superoperator(ch), reference_superoperator(ch)) < 1e-12
            assert max_abs_diff(choi(ch), reference_choi(ch)) < 1e-12

    @pytest.mark.parametrize("shape", HAAR_SHAPES)
    def test_projection_superoperator_matches_rank_one_loop(self, shape):
        blocks, zero_dim = shape
        alg = _haar_algebra(blocks, zero_dim, np.random.default_rng(len(blocks) + 10 * zero_dim))
        want = reference_projection_superoperator(alg)
        assert max_abs_diff(projection_superoperator(alg), want) < 1e-12

    @pytest.mark.parametrize("blocks", UNITAL_SHAPES)
    def test_bimodule_verdict_matches_joint_pair_loop(self, blocks):
        rng = np.random.default_rng(sum(m * n * (i + 1) for i, (m, n) in enumerate(blocks)))
        alg = _haar_algebra(blocks, 0, rng)
        other = _haar_algebra(blocks, 0, rng)
        e = condexp_channel(alg)
        flip = random_unitary([1.0], [haar_unitary(alg.dim, rng)])
        cases = [
            (e, alg, True),
            (e, other, False),
            (convex_mix([1 - 1e-3, 1e-3], [e, flip]), alg, False),
            (convex_mix([1 - 1e-13, 1e-13], [e, flip]), alg, True),
        ]
        for ch, target, expected in cases:
            report = verify_condexp_axioms(ch, target)
            assert report.passed is expected
            assert (report.bimodule <= 1e-9) is expected
            assert (reference_bimodule(ch, target) <= 1e-9) is expected

    @pytest.mark.parametrize("blocks", UNITAL_SHAPES)
    def test_axiom_report_matches_batched_reference(self, blocks):
        rng = np.random.default_rng(7 + sum(m * n * (i + 2) for i, (m, n) in enumerate(blocks)))
        alg = _haar_algebra(blocks, 0, rng)
        other = _haar_algebra(blocks, 0, rng)
        d = alg.dim
        e = condexp_channel(alg)
        flip = random_unitary([1.0], [haar_unitary(d, rng)])
        # 2 d^2 Kraus operators, more than d^2: positivity from the Choi matrix
        noisy = convex_mix([0.5, 0.5], [depolarizing(0.3, d), depolarizing(0.8, d)])
        assert len(noisy.kraus) > d * d >= len(e.kraus)
        cases = [
            (e, alg, True),
            (e, other, False),
            (convex_mix([1 - 1e-3, 1e-3], [e, flip]), alg, False),
            (convex_mix([1 - 1e-13, 1e-13], [e, flip]), alg, True),
            (noisy, alg, False),
            # reference_axioms keeps both module sides: a non-unital channel and a
            # non-unital algebra, where the left side alone must find the same maximum
            (isometry_channel(d, d, 3, rng), alg, False),
            (random_ru_channel(d + 2, 3, rng), _haar_algebra(blocks, 2, rng), False),
        ]
        for ch, target, expected in cases:
            report = verify_condexp_axioms(ch, target)
            # the reference in block coordinates: U K U^dag against the algebra with U = 1
            u = target.basis_change
            rotated = Channel(u @ ch.kraus @ u.conj().T)
            want = reference_axioms(rotated, AlgebraSpec(target.blocks, target.zero_dim))
            computational = reference_axioms(ch, target)
            assert report.passed is want.passed is computational.passed is expected
            assert report.positive is want.positive is computational.positive is True
            n = target.dim
            for name, factor in (
                ("fixes_subalgebra", n),
                ("bimodule", n * n),
                ("trace_preserving", n),
            ):
                got, old = getattr(report, name), getattr(computational, name)
                assert abs(got - getattr(want, name)) <= 1e-12, name
                assert got <= factor * old + 1e-12 and old <= factor * got + 1e-12, name

    @given(
        blocks=st.lists(
            st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=4
        ).filter(lambda blocks: sum(m * n for m, n in blocks) <= 10),
        zero_dim=st.integers(0, 2),
        kind=st.sampled_from(["own", "wrong-basis", "random-unitary", "mix"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(blocks=[(2, 1), (1, 1), (2, 1)], zero_dim=0, kind="own", seed=1)
    @example(blocks=[(2, 1), (1, 1), (2, 1)], zero_dim=0, kind="wrong-basis", seed=2)
    @example(blocks=[(1, 2), (2, 2), (1, 2)], zero_dim=1, kind="mix", seed=3)
    @example(blocks=[(1, 1), (3, 1), (1, 1)], zero_dim=2, kind="random-unitary", seed=4)
    def test_axiom_report_equals_the_gathered_reference_bit_for_bit(
        self, blocks, zero_dim, kind, seed
    ):
        rng = np.random.default_rng(seed)
        alg = _haar_algebra(tuple(blocks), zero_dim, rng)
        d = alg.dim
        # the expectation of a unital algebra with the zero summand as one more block
        unital = tuple(blocks) + (((1, zero_dim),) if zero_dim else ())
        basis = haar_unitary(d, rng) if kind == "wrong-basis" else alg.basis_change
        e = condexp_channel(AlgebraSpec(unital, 0, basis))
        ch = {
            "own": e,
            "wrong-basis": e,
            "random-unitary": random_ru_channel(d, 3, rng),
            "mix": convex_mix([1 - 1e-3, 1e-3], [e, from_kraus([haar_unitary(d, rng)])]),
        }[kind]
        # the residuals are maxima of absolute values, so == compares every bit
        assert verify_condexp_axioms(ch, alg) == reference_gathered_axioms(ch, alg)

    @pytest.mark.parametrize("shape", HAAR_SHAPES)
    def test_block_projection_is_the_rotated_projection(self, shape):
        blocks, zero_dim = shape
        alg = _haar_algebra(blocks, zero_dim, np.random.default_rng(3 + len(blocks) + zero_dim))
        d = alg.dim
        # the rows of P' 1 = P', placed back at every multiplicity index a
        p_block = np.zeros((d, d, d, d), dtype=np.complex128)
        for m, _, pos in alg._shape_groups:
            rows = algebras._block_sums(np.eye(d * d).reshape(d, d, d, d), pos) / m
            p_block[pos[..., None], pos[..., None, :]] = rows[:, None]
        uu = np.kron(alg.basis_change, alg.basis_change.conj())
        want = uu @ reference_projection_superoperator(alg) @ uu.conj().T
        assert max_abs_diff(p_block.reshape(d * d, d * d), want) <= 1e-12

    @pytest.mark.parametrize("shape", HAAR_SHAPES)
    def test_trace_vector_checks_match_the_basis_stack(self, shape):
        blocks, zero_dim = shape
        rng = np.random.default_rng(60 + len(blocks) + 7 * zero_dim)
        alg = _haar_algebra(blocks, zero_dim, rng)
        d, u = alg.dim, alg.basis_change
        admits = all(m >= n for m, n in blocks)
        randoms = [random_unit_vector(d, rng) for _ in range(5)]
        # one block with m >= n cut to rank n - 1 by its smallest singular value
        w = u @ random_unit_vector(d, rng)
        (m, n), off = next((b, o) for b, o in zip(blocks, alg.block_offsets()) if b[0] >= b[1])
        left, svals, right = np.linalg.svd(w[off : off + m * n].reshape(m, n))
        svals[-1] = 0.0
        w[off : off + m * n] = ((left[:, :n] * svals) @ right).reshape(-1)
        deficient = u.conj().T @ w / np.linalg.norm(w)
        vectors = randoms + [deficient]
        if admits and zero_dim == 0:
            vectors += trace_vector_onb(alg)
        # states of the algebra's own and off it; the check takes either
        inside = project_onto_algebra(alg, random_density(d, rng))
        rhos = [inside / np.trace(inside).real, random_density(d, rng), np.eye(d) / d]
        for v in vectors:
            for rho in rhos:
                got = is_trace_vector(v, alg, rho).max_violation
                assert abs(got - reference_trace_violation(v, alg, rho)) <= 1e-14
            assert is_separating(v, alg) is reference_is_separating(v, alg)
        assert [is_separating(v, alg) for v in randoms] == [admits] * len(randoms)
        assert not is_separating(deficient, alg)
        # the rank cutoff scales with the largest singular value of all blocks:
        # block 0 at 1e6 hides the others at 1e-4
        w = u @ randoms[0]
        w[: blocks[0][0] * blocks[0][1]] *= 1e10
        lopsided = u.conj().T @ w * 1e-4
        assert is_separating(lopsided, alg) is reference_is_separating(lopsided, alg)
        assert is_separating(lopsided, alg) is (admits and len(blocks) == 1)

    @pytest.mark.parametrize("blocks", ONB_SHAPES + D32_SHAPES)
    def test_trace_vector_onb_matches_the_orbit(self, blocks):
        d = sum(m * n for m, n in blocks)
        alg = _haar_algebra(blocks, 0, np.random.default_rng(90 + d + len(blocks)))
        got, want = np.array(trace_vector_onb(alg)), np.array(reference_trace_vector_onb(alg))
        assert max_abs_diff(got, want) <= 1e-13

    @pytest.mark.parametrize("blocks", UNITAL_SHAPES)
    def test_trace_vector_wrt_matches_the_grid_einsum(self, blocks):
        rng = np.random.default_rng(80 + sum(m * n for m, n in blocks))
        alg = _haar_algebra(blocks, 0, rng)
        x = random_unit_vector(alg.dim, rng)
        # block weights with distinct eigenvalues, whose eigenvectors rounding
        # cannot rotate: a pure state's projection is feasible on every shape
        rhos = [project_onto_algebra(alg, np.outer(x, x.conj()))]
        if all(m >= n for m, n in blocks):
            rhos.append(project_onto_algebra(alg, random_density(alg.dim, rng)))
        for rho in rhos:
            got = trace_vector_wrt(alg, rho)
            assert max_abs_diff(got, reference_trace_vector_wrt(alg, rho)) <= 1e-12
            assert is_trace_vector(got, alg, rho).passed

    def test_one_kraus_product_and_no_choi_or_superoperator_per_check(self, monkeypatch):
        alg = _haar_algebra(((2, 2), (1, 1)), 0, np.random.default_rng(5))
        record = _AxiomCheckRecord(monkeypatch)
        for ch in (condexp_channel(alg), convex_mix([0.5, 0.5], [depolarizing(0.5, 5)] * 2)):
            record.reset()
            assert verify_condexp_axioms(ch, alg).positive
            assert record.calls == {"_kraus_product": 1, "choi": 0, "superoperator": 0}

    @staticmethod
    def _pqc_cases(d, rng):
        """(channel, target) pairs on input dimension d: unital and
        non-unital square channels, rectangular ones both ways, and one that
        privatizes every state."""
        mixed = lambda n: DensityOperator(np.eye(n) / n)  # noqa: E731
        cases = [
            (random_ru_channel(d, 3, rng), mixed(d)),
            (isometry_channel(d, d, 2, rng), mixed(d)),
            (isometry_channel(d, d + 2, 2, rng), mixed(d + 2)),
            (depolarizing(1.0, d), mixed(d)),
        ]
        if d > 1:
            cases.append((isometry_channel(d, d - 1, 3, rng), mixed(d - 1)))
        return cases

    @pytest.mark.parametrize("d", range(1, 13))
    def test_is_pqc_equals_the_per_state_loop(self, d):
        rng = np.random.default_rng(40 + d)
        for ch, target in self._pqc_cases(d, rng):
            for count in (1, 2, 7, 40):
                states = [random_unit_vector(d, rng) for _ in range(count)]
                inst = PQCInstance(states, ch, target)
                got, want = is_pqc(inst), reference_is_pqc(inst)
                assert got.residuals == want.residuals
                assert got.verdict is want.verdict

    def test_is_pqc_equals_the_per_state_loop_across_chunks(self, monkeypatch, apply_calls):
        rng = np.random.default_rng(53)
        d, budget = 5, 2 * 16 * 7 * 7 + 7
        monkeypatch.setattr(condexp, "_CHUNK_BYTES", budget)
        chunkings = []
        for ch, target in self._pqc_cases(d, rng):
            states = np.array([random_unit_vector(d, rng) for _ in range(10)])
            inst = PQCInstance(states, ch, target)
            want = reference_is_pqc(inst)
            apply_calls.clear()
            assert is_pqc(inst).residuals == want.residuals
            # a chunk holds as many states as fit in the budget by the wider
            # of the d_in x d_in input and the d_out x d_out output, and at
            # least one; the number of Kraus operators plays no part
            d_out, d_in = ch.dim_out, ch.dim_in
            step = max(1, budget // (16 * max(d_in, d_out) ** 2))
            assert apply_calls == [(min(step, 10 - lo), d, d) for lo in range(0, 10, step)]
            chunkings.append([n for n, _, _ in apply_calls])
        # a 5 x 5 or smaller output fits three to a chunk with one left over,
        # whatever K is, and the 7 x 7 output of the widening isometry two
        assert [3, 3, 3, 1] in chunkings and [2] * 5 in chunkings

    def test_a_large_kraus_stack_does_not_shrink_the_step(self, apply_calls):
        # K = 64 on d = 8: each state holds only its 8 x 8 outer product and
        # output, 1 KiB each, so all 40 fit in one 1 MiB chunk
        rng = np.random.default_rng(54)
        ch = depolarizing(1.0, 8)
        states = np.array([random_unit_vector(8, rng) for _ in range(40)])
        inst = PQCInstance(states, ch, DensityOperator(np.eye(8) / 8))
        report = is_pqc(inst)
        assert apply_calls == [(40, 8, 8)]
        assert report.residuals == reference_is_pqc(inst).residuals
        assert report.verdict

    def test_peak_memory_is_the_superoperator_and_one_budget(self):
        # ((16, 1),) has K = 256: the superoperator is 1 MiB whatever K is,
        # its slabs and the chunk of 16 outer products and outputs stay
        # within the 1 MiB budget, where the old K d x d intermediate of the
        # whole 16-vector basis alone would have held 16 MiB
        alg = AlgebraSpec(((16, 1),))
        rho0 = DensityOperator(np.eye(16) / 16)
        inst = PQCInstance(trace_vector_onb(alg), condexp_channel(alg), rho0)
        tracemalloc.start()
        try:
            report = is_pqc(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict
        assert peak < 2**20 + 2 * condexp._CHUNK_BYTES


@pytest.fixture
def apply_calls(monkeypatch):
    """The input shape of every Channel.apply_matrix call, in call order."""
    calls = []
    apply_matrix = Channel.apply_matrix

    def counted(self, x):
        calls.append(np.shape(x))
        return apply_matrix(self, x)

    monkeypatch.setattr(Channel, "apply_matrix", counted)
    return calls


class TestIsPqc:
    def test_one_apply_matrix_call_per_chunk(self, apply_calls):
        states = [_equator_state(k * np.pi / 4) for k in range(8)]
        assert is_pqc(PQCInstance(states, E_DELTA, MIXED2)).verdict
        assert apply_calls == [(8, 2, 2)]
        apply_calls.clear()
        assert not is_pqc(PQCInstance(states[:1] + [np.array([1.0, 0.0])], E_DELTA, MIXED2))
        assert apply_calls == [(2, 2, 2)]

    def test_equator_states_are_private_for_dephasing_expectation(self):
        states = tuple(_equator_state(k * np.pi / 4) for k in range(8))
        report = is_pqc(PQCInstance(states, E_DELTA, MIXED2))
        assert report.verdict
        assert bool(report)
        assert max(report.residuals) <= 1e-9

    def test_pole_state_fails_with_half_residual(self):
        report = is_pqc(PQCInstance((np.array([1.0, 0.0]),), E_DELTA, MIXED2))
        assert not report.verdict
        assert abs(report.residuals[0] - 0.5) < 1e-12

    def test_everything_is_private_for_full_depolarizing(self):
        rng = np.random.default_rng(7)
        states = tuple(random_unit_vector(2, rng) for _ in range(10))
        assert is_pqc(PQCInstance(states, depolarizing(1.0, 2), MIXED2)).verdict

    def test_instance_validation(self):
        with pytest.raises(NotUnitVector):
            PQCInstance((np.array([1.0, 1.0]),), E_DELTA, MIXED2)
        with pytest.raises(NotUnitVector):
            PQCInstance((np.array([np.nan, 0.0]),), E_DELTA, MIXED2)
        with pytest.raises(DimensionMismatch):
            PQCInstance((np.array([1.0, 0.0, 0.0]),), E_DELTA, MIXED2)
        with pytest.raises(ValueError):
            PQCInstance((), E_DELTA, MIXED2)

    @pytest.mark.parametrize(
        "states, error",
        [
            pytest.param([[1.0, 0.0], [1.0, 0.0, 0.0]], DimensionMismatch, id="ragged"),
            pytest.param([[1.0], [0.0]], DimensionMismatch, id="short-states"),
            pytest.param(np.eye(3), DimensionMismatch, id="long-stack"),
            pytest.param(np.zeros((0, 2)), ValueError, id="empty-stack"),
            pytest.param([], ValueError, id="empty-list"),
            pytest.param([[1.0, 0.0], [np.nan, 0.0]], NotUnitVector, id="nan-second-state"),
            pytest.param([[1.0, 0.0], [np.inf, 0.0]], NotUnitVector, id="inf-state"),
            pytest.param([[1.0, 0.0], [0.6, 0.6]], NotUnitVector, id="short-norm"),
            # norm 1 + 1.25e-9, just beyond the default atol
            pytest.param([[1.0, 0.0], [1.0, 5e-5]], NotUnitVector, id="norm-just-over-atol"),
        ],
    )
    def test_instance_rejects_every_bad_state(self, states, error):
        with pytest.raises(error):
            PQCInstance(states, E_DELTA, MIXED2)

    @pytest.mark.parametrize("states", [[["x", 1]], [[{}, 0]], [[1, 0], [0, "y"]]])
    def test_instance_rejects_entries_that_are_not_numbers(self, states):
        # a ValueError, not the DimensionMismatch of states of unequal length
        with pytest.raises(ValueError, match="states must hold only numbers"):
            PQCInstance(states, E_DELTA, MIXED2)

    def test_instance_rejects_a_target_of_the_wrong_dimension(self):
        with pytest.raises(DimensionMismatch, match="target dimension"):
            PQCInstance((np.array([1.0, 0.0]),), E_DELTA, DensityOperator(np.eye(3) / 3))

    def test_a_raw_target_is_validated_as_a_state(self):
        rng = np.random.default_rng(17)
        states = [random_unit_vector(2, rng) for _ in range(5)] + [_equator_state(0.3)]
        raw = np.eye(2) / 2
        got = is_pqc(PQCInstance(states, E_DELTA, raw))
        want = is_pqc(PQCInstance(states, E_DELTA, MIXED2))
        assert got.verdict is want.verdict is False
        assert got.residuals == want.residuals
        assert isinstance(PQCInstance(states, E_DELTA, raw).rho0, DensityOperator)
        with pytest.raises(ValueError, match="PSD"):
            PQCInstance(states, E_DELTA, np.diag([1.5, -0.5]))
        with pytest.raises(DimensionMismatch, match="target dimension"):
            PQCInstance(states, E_DELTA, np.eye(3) / 3)

    def test_both_routes_take_one_unit_norm_verdict_at_the_atol_edge(self):
        # np.linalg.norm reads 1 + 0.9999999e-9 here, and the sum over the
        # float64 view 1 + 1.0000001e-9: on either side of the default atol
        v = np.array(
            [
                -0.1136867858650831 - 0.5691000446807839j,
                0.10702248036821485 - 0.34717662233021723j,
                -0.3583091068953433 + 0.07872853559457615j,
                0.3972586536276922 + 0.48868906390886396j,
            ]
        )
        alg = AlgebraSpec(((4, 1),))
        rho0 = DensityOperator(np.eye(4) / 4)
        routes = (
            lambda: is_trace_vector(v, alg, rho0),
            lambda: PQCInstance((v,), condexp_channel(alg), rho0),
        )
        admitted = []
        for route in routes:
            try:
                route()
                admitted.append(True)
            except NotUnitVector:
                admitted.append(False)
        assert admitted[0] == admitted[1]

    def test_states_are_one_read_only_stack(self):
        given = [_equator_state(0.3), np.array([1.0, 4e-5])]  # norm 1 + 8e-10
        inst = PQCInstance(given, E_DELTA, MIXED2)
        assert isinstance(inst.states, np.ndarray)
        assert inst.states.shape == (2, 2) and inst.states.dtype == np.complex128
        assert inst.states.flags.c_contiguous and not inst.states.flags.writeable
        with pytest.raises(ValueError):
            inst.states[0, 0] = 0.0
        given[0][0] = 0.0  # the instance holds a copy
        assert inst.states[0, 0] == 1 / np.sqrt(2)
        # column vectors are flattened to rows
        columns = PQCInstance(inst.states[:, :, None], E_DELTA, MIXED2)
        assert np.array_equal(columns.states, inst.states)


class TestCertificate:
    def test_agrees_on_equator_and_poles(self):
        for theta in (0.0, 0.9, np.pi / 3):
            assert private_states_certificate(DELTA2, MIXED2, _equator_state(theta))
        assert not private_states_certificate(DELTA2, MIXED2, np.array([1.0, 0.0]))

    def test_bell_vector_for_multiplicity_block(self):
        bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
        assert private_states_certificate(TWO_BY_M2, np.eye(4) / 4, bell)

    def test_rejects_non_unital(self):
        with pytest.raises(NotUnitalAlgebra):
            private_states_certificate(AlgebraSpec(((1, 1),), 1), np.eye(2) / 2, np.array([1.0, 0.0]))

    def test_rejects_target_outside_algebra(self):
        off = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
        with pytest.raises(Rho0NotInAlgebra):
            private_states_certificate(DELTA2, off, _equator_state(0.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_direct_route_on_random_vectors(self, seed):
        # dual route: trace-vector certificate vs applying the built channel
        rng = np.random.default_rng(seed)
        alg = random_block_algebra(rng, max_dim=8, admit_trace_vectors=True)
        ch = condexp_channel(alg)
        rho0 = DensityOperator(np.eye(alg.dim) / alg.dim)
        vectors = [random_unit_vector(alg.dim, rng) for _ in range(30)]
        vectors.extend(trace_vector_onb(alg)[:2])
        for v in vectors:
            direct = is_pqc(PQCInstance((v,), ch, rho0)).verdict
            cert = private_states_certificate(alg, rho0, v)
            assert direct == cert

    # ((32, 1),) is left out for time: its K = 1024 channel route takes about 1 s
    @pytest.mark.parametrize("blocks", D32_SHAPES[1:], ids=["8x2+16x1", "4x4+16x1", "32x1x1"])
    def test_both_routes_accept_the_whole_d32_basis(self, blocks):
        alg = AlgebraSpec(blocks, 0, haar_unitary(32, np.random.default_rng(len(blocks))))
        rho0 = DensityOperator(np.eye(32) / 32)
        onb = trace_vector_onb(alg)
        report = is_pqc(PQCInstance(onb, condexp_channel(alg), rho0))
        assert report.verdict and len(report.residuals) == 32
        assert all(private_states_certificate(alg, rho0, v) for v in onb)

    def test_both_routes_agree_on_random_d32_vectors(self):
        rng = np.random.default_rng(32)
        alg = AlgebraSpec(((1, 1),) * 32, 0, haar_unitary(32, rng))
        rho0 = DensityOperator(np.eye(32) / 32)
        vectors = [random_unit_vector(32, rng) for _ in range(50)]
        report = is_pqc(PQCInstance(vectors, condexp_channel(alg), rho0))
        direct = [r <= DEFAULT_TOL.atol for r in report.residuals]
        assert direct == [private_states_certificate(alg, rho0, v) for v in vectors]
        assert not any(direct)  # a random vector is no trace vector


EQUIVALENCE_SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "equivalence_sweep.py"


def _load_sweep():
    spec = importlib.util.spec_from_file_location("equivalence_sweep", EQUIVALENCE_SWEEP)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


class TestEquivalenceSweepScript:
    def test_small_sweep_finds_no_disagreement(self, capsys):
        sweep = _load_sweep()
        assert sweep.run(algebras=3, vectors=5, seed=1, max_dim=6) == 0
        out = capsys.readouterr().out
        assert "rejected basis vectors: 0 / 14\n" in out
        assert "disagreements between the two routes: 0 / 29 vectors" in out

    def test_a_basis_both_routes_reject_fails_the_sweep(self, capsys, monkeypatch):
        sweep = _load_sweep()
        # the standard basis: no trace-vector basis of the algebras this seed draws
        monkeypatch.setattr(sweep, "trace_vector_onb", lambda alg: list(np.eye(alg.dim)))
        assert sweep.run(algebras=3, vectors=5, seed=1, max_dim=6) > 0
        assert "rejected basis vectors: 0 /" not in capsys.readouterr().out

    def test_sweep_up_to_d32_finds_no_disagreement(self, monkeypatch, capsys):
        sweep = _load_sweep()
        draw, dims = sweep.random_block_algebra, []

        def recording(*args, **kwargs):
            alg = draw(*args, **kwargs)
            dims.append(alg.dim)
            return alg

        monkeypatch.setattr(sweep, "random_block_algebra", recording)
        assert sweep.run(10, 10, 20260821, 32) == 0
        assert len(dims) == 10 and max(dims) >= 24
        assert "disagreements between the two routes: 0 /" in capsys.readouterr().out

    def test_runs_from_a_checkout_without_pythonpath(self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        argv = ["--algebras", "1", "--vectors", "2", "--max-dim", "4"]
        proc = subprocess.run(
            [sys.executable, str(EQUIVALENCE_SWEEP), *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "disagreements between the two routes: 0 / 5 vectors" in proc.stdout


class TestCollectiveNoise:
    def setup_method(self):
        self.ch, self.alg = collective_noise_channel_n2()
        self.singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
        self.triplet_proj = np.eye(4) - np.outer(self.singlet, self.singlet)

    def test_block_structure(self):
        assert self.alg.blocks == ((3, 1), (1, 1))
        assert self.alg.is_unital

    def test_singlet_is_fixed(self):
        rho = np.outer(self.singlet, self.singlet)
        assert matrices_equal(self.ch.apply_matrix(rho), rho)

    def test_triplet_states_are_uniformly_mixed(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00>, inside the symmetric component
        assert matrices_equal(self.ch.apply_matrix(rho), self.triplet_proj / 3)

    def test_axioms_hold_for_the_fixed_algebra(self):
        assert verify_condexp_axioms(self.ch, self.alg).passed

    def test_matches_the_constructed_expectation(self):
        # dual route: hand-built Kraus list vs projection-derived channel
        assert max_abs_diff(choi(self.ch), choi(condexp_channel(self.alg))) < 1e-12

    def test_kraus_count(self):
        assert len(self.ch.kraus) == 10
