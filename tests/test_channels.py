import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqclab import channels
from pqclab.algebras import AlgebraSpec
from pqclab.channels import (
    Channel,
    DensityOperator,
    apply,
    channels_equal,
    choi,
    compose,
    convex_mix,
    depolarizing,
    from_kraus,
    is_unital,
    kraus_from_choi,
    random_unitary,
    superoperator,
)
from pqclab.condexp import condexp_channel, verify_condexp_axioms
from pqclab.errors import (
    DimensionMismatch,
    NotAProbabilityDistribution,
    NotTracePreserving,
    NotUnitary,
)
from pqclab.io import channel_to_spec
from pqclab.linalg import ToleranceConfig, is_psd, max_abs_diff
from pqclab.rand import haar_unitary, random_density, random_ru_channel
from reference import (
    isometry_channel,
    matrices_equal,
    reference_apply_matrix,
    reference_choi_from_superoperator,
    reference_compose,
    reference_convex_mix,
    reference_depolarizing,
    reference_kraus_from_choi,
    reference_kraus_product,
    reference_superoperator,
    vec,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

DEPHASING = random_unitary([0.5, 0.5], [np.eye(2), SZ])

# amplitude damping with gamma = 1/2: trace preserving but not unital
AMP_DAMP = from_kraus(
    [
        np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex),
        np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex),
    ]
)


class TestConstruction:
    def test_identity_from_kraus(self):
        ch = from_kraus([np.eye(2)])
        assert ch.dim_in == ch.dim_out == 2

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(NotTracePreserving):
            from_kraus([2 * SX])
        # sum K^dag K = [[1, 1e-6 i], [-1e-6 i, 1 + 1e-12]]: off only in its imaginary part
        with pytest.raises(NotTracePreserving):
            from_kraus([[[1, 1e-6j], [0, 1]]])

    def test_rejects_mismatched_kraus_shapes(self):
        with pytest.raises(DimensionMismatch):
            from_kraus([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("kraus", [[[["a"]]], [[[1, "x"], [0, 1]]], [[[{}]]]])
    def test_rejects_entries_that_are_not_numbers(self, kraus):
        # a ValueError, not the DimensionMismatch of a ragged stack
        with pytest.raises(ValueError, match="kraus must hold only numbers"):
            Channel(kraus)

    def test_random_unitary_rejects_bad_probs(self):
        with pytest.raises(NotAProbabilityDistribution):
            random_unitary([0.5, 0.6], [np.eye(2), SX])
        with pytest.raises(NotAProbabilityDistribution):
            random_unitary([-0.1, 1.1], [np.eye(2), SX])

    def test_random_unitary_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            random_unitary([1.0], [np.array([[1, 1], [0, 1]], dtype=complex)])
        # U^dag U overflows: it fails without a numpy warning
        with pytest.raises(NotUnitary):
            random_unitary([1.0], [[[1e200, 1e200], [1e200, -1e200]]])

    @pytest.mark.parametrize(
        "probs, unitaries, error",
        [
            ([0.5, 0.5], [np.eye(2)], DimensionMismatch),
            ([[1.0]], [np.eye(2)], DimensionMismatch),
            ([], [], NotAProbabilityDistribution),
            ([1.0, 0.0], [SX, 2 * SX], NotUnitary),
        ],
        ids=["count", "probs-not-1-d", "empty", "zero-weight-non-unitary"],
    )
    def test_random_unitary_keeps_its_error_classes(self, probs, unitaries, error):
        with pytest.raises(error):
            random_unitary(probs, unitaries)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_random_unitary_stack_is_the_square_root_weighted_unitaries(self, k, d, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(k))
        if k > 1:  # a zero weight, so its operator is all zeros
            p[rng.integers(k)] = 0.0
            p /= p.sum()
        us = [haar_unitary(d, rng) for _ in range(k)]
        expected = np.sqrt(p)[:, None, None] * np.stack(us)
        assert random_unitary(p, us).kraus.tobytes() == expected.tobytes()

    def test_depolarizing_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            depolarizing(0.0, 2)
        with pytest.raises(ValueError):
            depolarizing(1.2, 2)

    @pytest.mark.parametrize("p", [True, np.bool_(True)])
    def test_depolarizing_rejects_a_bool_noise(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            depolarizing(p, 2)

    @pytest.mark.parametrize("p", ["0.5", 0.5 + 0j, None, [0.5]])
    def test_depolarizing_rejects_a_noise_that_is_not_a_real_number(self, p):
        with pytest.raises(ValueError, match="p must lie in"):
            depolarizing(p, 2)

    @pytest.mark.parametrize("d", [2.0, 2.5, True, np.bool_(True), "2"])
    def test_depolarizing_rejects_dimensions_that_are_not_integers(self, d):
        with pytest.raises(ValueError, match="must be integers"):
            depolarizing(0.5, d)

    @pytest.mark.parametrize("d", [0, -2])
    def test_depolarizing_rejects_non_positive_dimensions(self, d):
        with pytest.raises(ValueError, match="must be positive"):
            depolarizing(0.5, d)

    @pytest.mark.parametrize(
        "probs, unitaries",
        [([1.0], [np.ones((2, 3))]), ([0.5, 0.5], [np.eye(2), np.eye(3)])],
        ids=["non-square", "mixed-sizes"],
    )
    def test_random_unitary_rejects_unitaries_of_the_wrong_shape(self, probs, unitaries):
        with pytest.raises(DimensionMismatch, match="square shape"):
            random_unitary(probs, unitaries)

    def test_density_operator_must_be_square(self):
        with pytest.raises(DimensionMismatch):
            DensityOperator(np.ones((2, 3)) / 2)

    def test_density_operator_validation(self):
        with pytest.raises(ValueError):
            DensityOperator(SZ)
        with pytest.raises(ValueError):
            DensityOperator(np.eye(2))


class TestAction:
    def test_dephasing_kills_off_diagonals(self):
        x = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
        out = DEPHASING.apply_matrix(x)
        assert matrices_equal(out, np.diag([0.6, 0.4]))

    def test_dephasing_sends_plus_to_maximally_mixed(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert matrices_equal(DEPHASING.apply_matrix(plus), np.eye(2) / 2)

    def test_full_depolarizing_on_pure_state(self):
        ch = depolarizing(1.0, 2)
        assert matrices_equal(ch.apply_matrix(np.diag([1.0, 0.0])), np.eye(2) / 2)

    def test_half_depolarizing_on_ground_state(self):
        ch = depolarizing(0.5, 2)
        out = ch.apply_matrix(np.diag([1.0, 0.0]))
        assert matrices_equal(out, np.diag([0.75, 0.25]))

    @given(st.integers(0, 10**6), st.sampled_from([2, 3]))
    def test_depolarizing_matches_convex_form(self, seed, d):
        # noise p acts as p * (tr rho) I/d + (1 - p) rho on every input
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.05, 1.0)
        ch = depolarizing(p, d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        expected = p * np.trace(x) * np.eye(d) / d + (1 - p) * x
        assert max_abs_diff(ch.apply_matrix(x), expected) < 1e-12

    @pytest.mark.parametrize(
        "d_in, d_out, count",
        [
            (1, 1, 1), (2, 2, 4), (3, 5, 2), (5, 3, 7), (6, 6, 36), (4, 4, 1),
            (1, 4, 1), (4, 1, 5), (2, 5, 40), (5, 2, 17), (3, 7, 40), (7, 3, 3), (6, 4, 29),
            (2, 2, 9), (3, 3, 20), (2, 6, 1), (5, 8, 1),
        ],
    )
    def test_matches_the_per_operator_loop(self, d_in, d_out, count):
        rng = np.random.default_rng(100 * d_in + 10 * d_out + count)
        ch = isometry_channel(d_in, d_out, count, rng)
        # not Hermitian, so S and its reshuffles cannot swap an index pair unseen
        xs = rng.standard_normal((3, d_in, d_in)) + 1j * rng.standard_normal((3, d_in, d_in))
        got = ch.apply_matrix(xs)
        # the sums run in another order, so they agree to rounding only
        assert max_abs_diff(ch.apply_matrix(xs[0]), reference_apply_matrix(ch, xs[0])) < 1e-13
        for x, y in zip(xs, got):
            assert max_abs_diff(y, reference_apply_matrix(ch, x)) < 1e-13

    def test_fixed_point_is_maximally_mixed(self):
        for d in (2, 3, 4):
            ch = depolarizing(0.7, d)
            assert matrices_equal(ch.apply_matrix(np.eye(d) / d), np.eye(d) / d)

    def test_apply_wraps_density_operators(self):
        rho = DensityOperator(np.eye(2) / 2)
        out = apply(DEPHASING, rho)
        assert isinstance(out, DensityOperator)
        assert matrices_equal(out.mat, np.eye(2) / 2)

    def test_apply_validates_a_raw_matrix_as_a_state(self):
        raw = np.array([[0.7, 0.2], [0.2, 0.3]])
        got = apply(DEPHASING, raw)
        assert isinstance(got, DensityOperator)
        assert np.array_equal(got.mat, apply(DEPHASING, DensityOperator(raw)).mat)
        with pytest.raises(ValueError, match="PSD"):
            apply(DEPHASING, np.diag([1.5, -0.5]))
        with pytest.raises(DimensionMismatch):
            apply(DEPHASING, np.eye(3) / 3)

    def test_apply_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            apply(DEPHASING, DensityOperator(np.eye(3) / 3))
        with pytest.raises(DimensionMismatch):
            DEPHASING.apply_matrix(np.eye(3))

    @pytest.mark.parametrize("d_in, d_out", [(1, 1), (2, 2), (3, 5), (5, 3), (8, 8)])
    def test_stack_equals_one_matrix_at_a_time(self, d_in, d_out):
        rng = np.random.default_rng(10 * d_in + d_out)
        ch = isometry_channel(d_in, d_out, 3, rng)
        xs = rng.standard_normal((6, d_in, d_in)) + 1j * rng.standard_normal((6, d_in, d_in))
        out = ch.apply_matrix(xs)
        assert out.shape == (6, d_out, d_out)
        for x, y in zip(xs, out):
            assert np.array_equal(y, ch.apply_matrix(x))
        assert ch.apply_matrix(xs[:1]).shape == (1, d_out, d_out)
        assert ch.apply_matrix(xs[:0]).shape == (0, d_out, d_out)

    # one output index j of a slab takes 16 * d_in * (d_out * d_in + K) = 912 bytes
    # here, so the budgets give slabs of one j, of two and a last of
    # one, and a single slab
    @pytest.mark.parametrize("budget", [912, 2 * 912 + 15, channels._CHUNK_BYTES])
    def test_superoperator_is_formed_on_first_use_and_read_only(self, monkeypatch, budget):
        monkeypatch.setattr(channels, "_CHUNK_BYTES", budget)
        k, d_out, d_in = 4, 5, 3
        ch = isometry_channel(d_in, d_out, k, np.random.default_rng(4))
        # building, serializing and axiom-checking never apply the channel
        alg = AlgebraSpec(((2, 2),), 0)
        built = condexp_channel(alg)
        channel_to_spec(built)
        verify_condexp_axioms(built, alg)
        for unused in (ch, built):
            assert "_superoperator" not in vars(unused)
        ch.apply_matrix(np.eye(d_in))
        s = ch._superoperator
        assert ch._superoperator is s
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = 0
        # S[(i, j), (k, l)] = sum_a K_a[i, k] conj(K_a[j, l]), slab by slab
        assert s.shape == (d_out**2, d_in**2)
        assert max_abs_diff(s, reference_superoperator(ch)) <= 1e-15

    @pytest.mark.parametrize("lead", [(), (1,)])
    def test_a_warm_call_allocates_only_its_output(self, lead):
        k, d = 125, 20
        rng = np.random.default_rng(125)
        ch = random_unitary(np.full(k, 1 / k), [haar_unitary(d, rng) for _ in range(k)])
        x = rng.standard_normal((*lead, d, d)) + 1j * rng.standard_normal((*lead, d, d))
        out = ch.apply_matrix(x)  # forms the cached superoperator
        tracemalloc.start()
        try:
            ch.apply_matrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, and slack for array headers and shape tuples; the
        # finiteness mask of x is freed before the output is allocated, and
        # a copy of x would add 6400 bytes, of the stack 800 kB
        assert peak < out.nbytes + 2048

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: random_unitary(
                np.full(125, 1 / 125), [haar_unitary(20, rng) for _ in range(125)]
            ),
            lambda rng: condexp_channel(AlgebraSpec(((8, 2), (16, 1)), 0, haar_unitary(32, rng))),
        ],
        ids=["d20-k125", "d32-k320"],
    )
    def test_a_first_call_holds_the_superoperator_and_one_budget(self, make):
        rng = np.random.default_rng(126)
        ch = make(rng)
        x = np.eye(ch.dim_in) / ch.dim_in
        tracemalloc.start()
        try:
            out = ch.apply_matrix(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # no d^4-sized array but the superoperator: its slabs stay within the budget
        assert peak <= ch._superoperator.nbytes + channels._CHUNK_BYTES + out.nbytes

    @pytest.mark.parametrize(
        "x, error",
        [
            pytest.param(np.ones(2), DimensionMismatch, id="1-d"),
            pytest.param(np.ones((1, 1, 2, 2)), DimensionMismatch, id="4-d"),
            pytest.param(np.ones((3, 2, 3)), DimensionMismatch, id="non-square-stack"),
            pytest.param(np.ones((3, 3, 3)), DimensionMismatch, id="wrong-size-stack"),
            pytest.param(np.ones((0, 3, 3)), DimensionMismatch, id="empty-wrong-size-stack"),
            pytest.param(np.array([[[np.nan, 0], [0, 1]]]), ValueError, id="nan-in-stack"),
            pytest.param(np.array([[np.inf, 0], [0, 1]]), ValueError, id="inf-matrix"),
        ],
    )
    def test_apply_matrix_rejects_malformed_input(self, x, error):
        with pytest.raises(error):
            DEPHASING.apply_matrix(x)


class TestChoi:
    def test_identity_choi_is_unnormalized_bell_projector(self):
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in ((0, 0), (0, 3), (3, 0), (3, 3)):
            expected[i, j] = 1.0
        assert matrices_equal(choi(from_kraus([np.eye(2)])), expected)

    def test_full_depolarizing_choi(self):
        assert matrices_equal(choi(depolarizing(1.0, 2)), np.eye(4) / 2)

    @given(st.integers(0, 10**6))
    def test_choi_is_psd_with_identity_marginal(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_ru_channel(2, 3, rng)
        j = choi(ch)
        assert is_psd(j)
        from pqclab.linalg import partial_trace

        assert matrices_equal(partial_trace(j, 2, 2, "right"), np.eye(2))

    @given(st.integers(0, 10**6))
    def test_kraus_from_choi_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_ru_channel(3, 2, rng)
        rebuilt = kraus_from_choi(choi(ch), 3, 3)
        assert channels_equal(ch, rebuilt)

    @pytest.mark.parametrize("d_in, d_out", [(2, 2), (3, 5), (5, 3), (8, 8)])
    def test_equals_the_reshuffled_superoperator_bit_for_bit(self, d_in, d_out):
        ch = isometry_channel(d_in, d_out, 3, np.random.default_rng(10 * d_in + d_out))
        assert np.array_equal(choi(ch), reference_choi_from_superoperator(ch))

    @pytest.mark.parametrize("dim_in, dim_out", [(0, 0), (0, 2), (2, 0), (-1, -1)])
    def test_kraus_from_choi_rejects_non_positive_dimensions(self, dim_in, dim_out):
        with pytest.raises(ValueError, match="dim_in and dim_out must be positive"):
            kraus_from_choi(np.zeros((0, 0)), dim_in, dim_out)

    def test_kraus_from_choi_rejects_a_choi_matrix_of_the_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            kraus_from_choi(np.eye(4) / 2, 2, 3)

    @pytest.mark.parametrize(
        "dim_in, dim_out", [(2.0, 2.0), (2, 2.0), (True, 4), (np.bool_(True), 4), ("2", 2)]
    )
    def test_kraus_from_choi_rejects_dimensions_that_are_not_integers(self, dim_in, dim_out):
        with pytest.raises(ValueError, match="must be integers"):
            kraus_from_choi(np.eye(4) / 2, dim_in, dim_out)

    def test_channels_of_different_dimensions_are_not_equal(self):
        assert not channels_equal(DEPHASING, depolarizing(1.0, 3))
        assert not channels_equal(DEPHASING, isometry_channel(2, 3, 1, np.random.default_rng(3)))

    @pytest.mark.parametrize("j", [np.zeros((4, 4))], ids=["zero"])
    def test_kraus_from_choi_with_no_eigenvalue_above_atol_is_not_trace_preserving(self, j):
        with pytest.raises(NotTracePreserving, match="no eigenvalue"):
            kraus_from_choi(j, 2, 2)

    @pytest.mark.parametrize(
        "shift, psd",
        [
            (-2 * np.eye(4), False),  # -1_4, no eigenvalue above atol either
            (0.5 * (np.eye(4, k=1) - np.eye(4, k=-1)), False),  # anti-Hermitian part 1/2
            (np.diag([-1e-6, 1e-6, 0, 0]), False),  # trace preserving, eigenvalue -5e-7
            (np.diag([0, -5e-10, 0, 0]), True),  # eigenvalue -5e-10
            (1e-10 * (np.eye(4, k=1) - np.eye(4, k=-1)), True),  # anti-Hermitian part 1e-10
        ],
        ids=["negative", "not-hermitian", "not-cp", "psd-within-atol", "hermitian-within-atol"],
    )
    def test_kraus_from_choi_admits_what_is_psd_and_refuses_the_rest(self, shift, psd):
        j = choi(from_kraus([np.eye(2)])) + shift
        assert is_psd(j) is psd
        if psd:
            assert channels_equal(kraus_from_choi(j, 2, 2), from_kraus([np.eye(2)]))
        else:
            with pytest.raises(ValueError, match="Choi matrix must be Hermitian PSD"):
                kraus_from_choi(j, 2, 2)

    def test_kraus_from_choi_drops_null_directions(self):
        rebuilt = kraus_from_choi(choi(DEPHASING), 2, 2)
        assert len(rebuilt.kraus) == 2


class TestSuperoperator:
    # per_slab 0 keeps the default budget, one slab for every stack drawn;
    # otherwise the budget holds per_slab output indices j, so a slab has
    # that many and the last one what is left
    @settings(max_examples=60)
    @given(
        st.integers(1, 5),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 6),
        st.integers(0, 2**32 - 1),
    )
    @example(2, 3, 2, 1, 0)
    @example(3, 5, 3, 2, 1)
    def test_superoperator_choi_and_equality_read_the_reference_product_bit_for_bit(
        self, k, d_out, d_in, per_slab, seed
    ):
        rng = np.random.default_rng(seed)
        ks = rng.standard_normal((k, d_out, d_in)) + 1j * rng.standard_normal((k, d_out, d_in))
        a, b = Channel(ks), Channel(ks + 1e-9 * rng.standard_normal(ks.shape))
        height = per_slab or d_out
        slabs = [
            reference_kraus_product(ks, ks[:, lo : lo + height])
            .reshape(d_out, d_in, -1, d_in)
            .transpose(0, 2, 1, 3)
            for lo in range(0, d_out, height)
        ]
        with pytest.MonkeyPatch.context() as mp:
            if per_slab:
                mp.setattr(channels, "_CHUNK_BYTES", per_slab * 16 * d_in * (d_out * d_in + k))
            s = superoperator(a)
        assert np.array_equal(s, np.concatenate(slabs, axis=1).reshape(d_out**2, d_in**2))

        def reference_choi(ch):
            t = reference_kraus_product(ch.kraus).reshape(d_out, d_in, d_out, d_in)
            return t.transpose(1, 0, 3, 2).reshape(d_in * d_out, -1)

        assert np.array_equal(choi(a), reference_choi(a))
        # the verdict flips exactly at the reference distance
        gap = max_abs_diff(reference_choi(a), reference_choi(b))
        assert channels_equal(a, b, ToleranceConfig(gap))
        assert not channels_equal(a, b, ToleranceConfig(np.nextafter(gap, 0)))

    @given(st.integers(0, 10**6))
    def test_matches_direct_action(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_ru_channel(2, 3, rng)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = superoperator(ch) @ vec(x)
        rhs = vec(ch.apply_matrix(x))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestCompose:
    def test_runs_first_argument_first(self):
        x_flip = from_kraus([SX])
        out = compose(DEPHASING, x_flip).apply_matrix(np.diag([1.0, 0.0]))
        assert matrices_equal(out, np.diag([0.0, 1.0]))

    def test_dephasing_is_idempotent(self):
        assert channels_equal(compose(DEPHASING, DEPHASING), DEPHASING)

    def test_rejects_mismatched_dimensions(self):
        with pytest.raises(DimensionMismatch, match="cannot chain"):
            compose(DEPHASING, depolarizing(1.0, 3))

    @given(st.integers(0, 10**6))
    def test_matches_sequential_application(self, seed):
        rng = np.random.default_rng(seed)
        a = random_ru_channel(2, 2, rng)
        b = random_ru_channel(2, 2, rng)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = compose(a, b).apply_matrix(x)
        rhs = b.apply_matrix(a.apply_matrix(x))
        assert max_abs_diff(lhs, rhs) < 1e-12


class TestUnital:
    def test_random_unitary_channels_are_unital(self):
        assert is_unital(DEPHASING)
        rng = np.random.default_rng(5)
        for _ in range(5):
            assert is_unital(random_ru_channel(3, 3, rng))

    def test_amplitude_damping_is_not_unital(self):
        assert not is_unital(AMP_DAMP)

    def test_agrees_with_applying_the_channel_to_the_maximally_mixed_state(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 3, 6):
            flip = random_unitary([1.0], [haar_unitary(d, rng)])
            for ch in (
                random_ru_channel(d, 3, rng),
                isometry_channel(d, d, 2, rng),
                # E(1/d) moves by about 1e-7 and 1e-12: one of each side of atol
                convex_mix([1 - 1e-7, 1e-7], [flip, isometry_channel(d, d, 2, rng)]),
                convex_mix([1 - 1e-12, 1e-12], [flip, isometry_channel(d, d, 2, rng)]),
            ):
                applied = max_abs_diff(ch.apply_matrix(np.eye(d) / d), np.eye(d) / d)
                assert is_unital(ch) is (applied <= 1e-9)
        assert not is_unital(isometry_channel(2, 3, 2, rng))


class TestConvexMix:
    def test_two_way_mix(self):
        mixed = convex_mix([0.5, 0.5], [from_kraus([np.eye(2)]), from_kraus([SZ])])
        assert channels_equal(mixed, DEPHASING)

    def test_rejects_bad_weights(self):
        with pytest.raises(NotAProbabilityDistribution):
            convex_mix([0.7, 0.7], [from_kraus([np.eye(2)]), from_kraus([SZ])])

    @pytest.mark.parametrize(
        "weights, dims",
        [([1.0], (2, 2)), ([[0.5, 0.5]], (2, 2)), ([0.5, 0.5], (2, 3))],
        ids=["too-few-weights", "weights-not-1d", "different-dimensions"],
    )
    def test_rejects_mismatched_inputs(self, weights, dims):
        with pytest.raises(DimensionMismatch):
            convex_mix(weights, [depolarizing(1.0, d) for d in dims])


class TestCptpInvariants:
    @given(st.integers(0, 10**6))
    def test_preserves_trace_and_positivity(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_ru_channel(2, 4, rng)
        rho = random_density(2, rng)
        out = ch.apply_matrix(rho)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert is_psd(out)

    def test_kraus_field_is_read_only(self):
        ch = from_kraus([np.eye(2)])
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 5.0


# rectangular channels 3 -> 5 and 5 -> 4, from Haar isometries
RECT_35 = isometry_channel(3, 5, 2, np.random.default_rng(35))
RECT_54 = isometry_channel(5, 4, 3, np.random.default_rng(54))
SX5 = np.roll(np.eye(5), 1, axis=0)  # the cyclic shift on C^5


class TestKrausStack:
    """Every channel holds one read-only (K, dim_out, dim_in) complex stack."""

    @pytest.mark.parametrize(
        "make, dims",
        [
            pytest.param(lambda: from_kraus([np.eye(2)]), (2, 2), id="from_kraus"),
            pytest.param(lambda: RECT_35, (3, 5), id="from_kraus-3-to-5"),
            pytest.param(lambda: DEPHASING, (2, 2), id="random_unitary"),
            pytest.param(lambda: depolarizing(0.5, 3), (3, 3), id="depolarizing"),
            pytest.param(
                lambda: convex_mix([0.25, 0.75], [RECT_35, compose(RECT_35, from_kraus([SX5]))]),
                (3, 5),
                id="convex_mix-3-to-5",
            ),
            pytest.param(lambda: compose(DEPHASING, from_kraus([SX])), (2, 2), id="compose"),
            pytest.param(lambda: compose(RECT_35, RECT_54), (3, 4), id="compose-3-to-4"),
            pytest.param(
                lambda: kraus_from_choi(choi(DEPHASING), 2, 2), (2, 2), id="kraus_from_choi"
            ),
            pytest.param(
                lambda: kraus_from_choi(choi(RECT_35), 3, 5), (3, 5), id="kraus_from_choi-3-to-5"
            ),
            pytest.param(
                lambda: condexp_channel(AlgebraSpec(((2, 1), (1, 2)))), (4, 4), id="condexp_channel"
            ),
        ],
    )
    def test_constructors_return_a_read_only_stack_that_gives_the_dimensions(self, make, dims):
        ch = make()
        assert [f.name for f in dataclasses.fields(ch)] == ["kraus"]
        assert isinstance(ch.kraus, np.ndarray)
        assert ch.kraus.dtype == np.complex128 and ch.kraus.ndim == 3
        assert ch.kraus.flags.c_contiguous and not ch.kraus.flags.writeable
        assert (ch.dim_in, ch.dim_out) == dims
        assert ch.kraus.shape[1:] == (ch.dim_out, ch.dim_in)
        with pytest.raises(ValueError):
            ch.kraus[0, 0, 0] = 5.0

    def test_dimensions_cannot_disagree_with_the_operators(self):
        # the shape is the only source of the dimensions
        ch = Channel((np.eye(2),))
        assert (ch.dim_in, ch.dim_out) == (2, 2)
        with pytest.raises(TypeError):
            Channel((np.eye(2),), 3, 5)
        with pytest.raises(DimensionMismatch):
            Channel(np.eye(2))

    def test_from_kraus_copies_its_input(self):
        ks = np.stack([np.eye(2), np.zeros((2, 2))]).astype(np.complex128)
        ch = from_kraus(ks)
        ks[0] = SX
        assert matrices_equal(ch.kraus[0], np.eye(2))

    @pytest.mark.parametrize(
        "kraus, error",
        [
            pytest.param([], DimensionMismatch, id="empty-list"),
            pytest.param(np.zeros((0, 2, 2)), DimensionMismatch, id="empty-stack"),
            pytest.param(np.eye(2), DimensionMismatch, id="one-matrix-not-a-stack"),
            pytest.param([[[np.nan, 0], [0, 1]]], ValueError, id="nan-entry"),
        ],
    )
    def test_from_kraus_rejects_malformed_stacks(self, kraus, error):
        with pytest.raises(error):
            from_kraus(kraus)

    @pytest.mark.parametrize("d_in, d_out, count", [(20, 20, 40), (12, 30, 8)])
    def test_trace_check_makes_no_second_copy_of_the_stack(self, d_in, d_out, count):
        ks = haar_unitary(count * d_out, np.random.default_rng(d_in))[:, :d_in]
        ks = ks.reshape(count, d_out, d_in).copy()
        tracemalloc.start()
        try:
            from_kraus(ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the channel's own copy is the one stack-sized allocation
        assert peak < 1.5 * ks.nbytes
        # sum K^dag K becomes (1 + 2e-8) 1, off by twenty times the default atol
        ks *= 1 + 1e-8
        with pytest.raises(NotTracePreserving):
            from_kraus(ks)


class TestListReferences:
    """The single-array compose, convex_mix, depolarizing and kraus_from_choi
    against the operator-by-operator lists they replace (tests/reference.py):
    the same operators in the same order, so the same channel."""

    @staticmethod
    def _same(ch, ref):
        assert ch.kraus.shape == ref.kraus.shape
        assert max_abs_diff(ch.kraus.reshape(-1), ref.kraus.reshape(-1)) < 1e-12
        assert channels_equal(ch, ref)

    @pytest.mark.parametrize("seed", range(4))
    def test_compose(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_ru_channel(3, 2, rng), random_ru_channel(3, 4, rng)
        self._same(compose(a, b), reference_compose(a, b))
        c35, c54 = isometry_channel(3, 5, 2, rng), isometry_channel(5, 4, 3, rng)
        self._same(compose(c35, c54), reference_compose(c35, c54))

    @pytest.mark.parametrize("seed", range(4))
    def test_convex_mix(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.dirichlet(np.ones(3))
        chans = [isometry_channel(3, 5, k, rng) for k in (1, 2, 3)]
        self._same(convex_mix(w, chans), reference_convex_mix(w, chans))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_depolarizing_is_bit_identical(self, d):
        # every entry is one product of a permutation and a phase, so the
        # batched products must reproduce the loop exactly
        for p in (1.0, 0.5, 0.05):
            ch, ref = depolarizing(p, d), reference_depolarizing(p, d)
            assert ch.kraus.tobytes() == ref.kraus.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_kraus_from_choi(self, seed):
        rng = np.random.default_rng(seed)
        for ch, d_in, d_out in (
            (random_ru_channel(3, 2, rng), 3, 3),
            (isometry_channel(3, 5, 2, rng), 3, 5),
            (isometry_channel(5, 4, 3, rng), 5, 4),
        ):
            j = choi(ch)
            self._same(kraus_from_choi(j, d_in, d_out), reference_kraus_from_choi(j, d_in, d_out))
