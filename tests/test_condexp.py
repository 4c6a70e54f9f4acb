import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqclab import channels, condexp
from pqclab.algebras import (
    AlgebraSpec,
    diagonal_algebra,
    full_matrix_algebra,
    project_onto_algebra,
    projection_superoperator,
    scalar_algebra,
    trace_vector_onb,
)
from pqclab.bloch import AllStates, GreatCircle, classify
from pqclab.channels import (
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
from pqclab.linalg import max_abs_diff, partial_trace
from pqclab.rand import haar_unitary, random_block_algebra, random_ru_channel, random_unit_vector
from reference import (
    hs_inner,
    isometry_channel,
    matrices_equal,
    reference_axioms,
    reference_bimodule,
    reference_choi,
    reference_condexp,
    reference_projection_superoperator,
    reference_superoperator,
    tensor,
)

DELTA2 = diagonal_algebra(2)
SCALAR2 = scalar_algebra(2)
TWO_BY_M2 = AlgebraSpec(((2, 2),))

E_DELTA = condexp_channel(DELTA2)
MIXED2 = DensityOperator(np.eye(2) / 2)

SZ = np.array([[1, 0], [0, -1]], dtype=complex)
DEPHASING = random_unitary([0.5, 0.5], [np.eye(2), SZ])


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

    @pytest.mark.parametrize("seed", range(3))
    def test_random_algebras_pass(self, seed):
        alg = random_block_algebra(np.random.default_rng(seed), max_dim=8, admit_trace_vectors=None)
        assert verify_condexp_axioms(condexp_channel(alg), alg).passed

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


def _haar_algebra(blocks, zero_dim, rng):
    d = sum(m * n for m, n in blocks) + zero_dim
    return AlgebraSpec(blocks, zero_dim, haar_unitary(d, rng))


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
            want = reference_axioms(ch, target)
            assert report.passed is want.passed is expected
            assert report.positive is want.positive is True
            for name in ("fixes_subalgebra", "bimodule", "trace_preserving"):
                assert abs(getattr(report, name) - getattr(want, name)) <= 1e-12, name

    def test_one_superoperator_and_no_choi_per_check(self, monkeypatch):
        calls = {"superoperator": 0, "choi": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name, fn in (("superoperator", channels.superoperator), ("choi", channels.choi)):
            monkeypatch.setattr(channels, name, counted(name, fn))
            monkeypatch.setattr(condexp, name, counted(name, fn), raising=False)
        alg = _haar_algebra(((2, 2), (1, 1)), 0, np.random.default_rng(5))
        for ch in (condexp_channel(alg), convex_mix([0.5, 0.5], [depolarizing(0.5, 5)] * 2)):
            calls.update(superoperator=0, choi=0)
            assert verify_condexp_axioms(ch, alg).positive
            assert calls == {"superoperator": 1, "choi": 0}


class TestIsPqc:
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
