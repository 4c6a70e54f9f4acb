import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqclab import bloch
from pqclab.bloch import (
    AllStates,
    AntipodalPair,
    BlochVector,
    Empty,
    GreatCircle,
    PauliTransfer,
    bloch_to_density,
    bloch_to_ket,
    classify,
    density_to_bloch,
    sample_private_states,
    transfer,
)
from pqclab.channels import (
    Channel,
    DensityOperator,
    depolarizing,
    from_kraus,
    is_unital,
    random_unitary,
)
from pqclab.errors import BlochVectorTooLong, DimensionMismatch, NotUnital
from pqclab.linalg import ToleranceConfig, max_abs_diff
from pqclab.rand import haar_unitary
from reference import isometry_channel, matrices_equal, reference_ket, reference_transfer

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

IDENTITY = from_kraus([np.eye(2)])
DEPHASING = random_unitary([0.5, 0.5], [np.eye(2), SZ])
FULL_DEPOLARIZING = depolarizing(1.0, 2)
# probabilities over (1, X, Y, Z); kernel of the transfer is the x axis
PAULI_MIX = random_unitary([0.5, 0.0, 0.25, 0.25], [np.eye(2), SX, SY, SZ])

AMP_DAMP = from_kraus(
    [
        np.array([[1, 0], [0, np.sqrt(0.5)]], dtype=complex),
        np.array([[0, np.sqrt(0.5)], [0, 0]], dtype=complex),
    ]
)


def _unit_bloch(seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


class TestCoordinates:
    def test_maximally_mixed_is_origin(self):
        assert np.allclose(density_to_bloch(np.eye(2) / 2).r, 0.0)

    def test_computational_states_are_poles(self):
        assert np.allclose(density_to_bloch(np.diag([1.0, 0.0])).r, [0, 0, 1])
        assert np.allclose(density_to_bloch(np.diag([0.0, 1.0])).r, [0, 0, -1])

    def test_plus_state_is_x_axis(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.allclose(density_to_bloch(plus).r, [1, 0, 0])

    def test_origin_maps_to_maximally_mixed(self):
        assert matrices_equal(bloch_to_density([0.0, 0.0, 0.0]).mat, np.eye(2) / 2)

    def test_south_pole(self):
        assert matrices_equal(bloch_to_density([0.0, 0.0, -1.0]).mat, np.diag([0.0, 1.0]))

    def test_rejects_super_unit_vectors(self):
        with pytest.raises(BlochVectorTooLong):
            bloch_to_density([1.0, 1.0, 0.0])

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0))
    def test_round_trip_inside_ball(self, seed, scale):
        r = scale * _unit_bloch(seed)
        back = density_to_bloch(bloch_to_density(r))
        assert np.max(np.abs(back.r - r)) < 1e-12

    @given(st.integers(0, 10**6))
    def test_ket_projector_matches_bloch_point(self, seed):
        r = _unit_bloch(seed)
        psi = bloch_to_ket(r)
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(density_to_bloch(rho).r - r)) < 1e-12
        assert psi[0].imag == 0.0 and psi[0].real >= 0.0

    def test_density_to_bloch_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            density_to_bloch(np.eye(3) / 3)

    def test_density_to_bloch_rejects_non_hermitian_matrices(self):
        # the traces' imaginary parts would be dropped, giving r = (1, 0, 1)
        with pytest.raises(ValueError):
            density_to_bloch(np.array([[1.0, 1.0], [0.0, 0.0]]))
        skew = np.array([[0.5, 0.5 + 1e-7], [0.5, 0.5]])
        with pytest.raises(ValueError):
            density_to_bloch(skew)
        assert np.allclose(density_to_bloch(skew, ToleranceConfig(1e-6)).r, [1, 0, 0])
        assert np.allclose(density_to_bloch(DensityOperator(np.eye(2) / 2)).r, 0.0)

    @pytest.mark.parametrize(
        "r", [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 1.0 + 1e-7], [0.6, 0.8, 0.1]]
    )
    def test_ket_needs_a_unit_vector(self, r):
        with pytest.raises(ValueError):
            bloch_to_ket(r)

    def test_ket_norm_check_follows_the_tolerance(self):
        r = [0.0, 0.0, 1.0 + 1e-7]
        assert np.allclose(bloch_to_ket(r, ToleranceConfig(1e-6)), [1.0, 0.0])
        assert np.allclose(bloch_to_ket(BlochVector(np.array([0.0, 0.0, -1.0]))), [0.0, 1.0])

    def test_ket_rejects_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            bloch_to_ket([1.0, 0.0])

    def test_batched_kets_check_every_row(self):
        rs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.9]])
        with pytest.raises(ValueError):
            bloch._kets(rs, ToleranceConfig())


class TestTransfer:
    def test_identity_channel(self):
        pt = transfer(IDENTITY)
        assert matrices_equal(pt.T, np.eye(3))
        assert np.allclose(pt.t, 0.0)

    def test_full_depolarizing(self):
        pt = transfer(FULL_DEPOLARIZING)
        assert np.allclose(pt.T, 0.0)
        assert np.allclose(pt.t, 0.0)

    def test_dephasing_keeps_only_z(self):
        pt = transfer(DEPHASING)
        assert matrices_equal(pt.T, np.diag([0.0, 0.0, 1.0]))

    def test_amplitude_damping_has_a_translation(self):
        # gamma = 1/2 shrinks x and y by sqrt(1/2), z by 1/2, and moves z up by 1/2
        pt = transfer(AMP_DAMP)
        s = np.sqrt(0.5)
        assert np.max(np.abs(pt.T - np.diag([s, s, 0.5]))) < 1e-15
        assert np.max(np.abs(pt.t - [0.0, 0.0, 0.5])) < 1e-15
        want = reference_transfer(AMP_DAMP)
        assert np.array_equal(pt.T, want.T) and np.array_equal(pt.t, want.t)

    @given(st.integers(0, 10**6), st.booleans())
    def test_affine_action_matches_channel(self, seed, unital):
        rng = np.random.default_rng(seed)
        if unital:
            probs = rng.dirichlet(np.ones(3))
            ch = random_unitary(probs, [haar_unitary(2, rng) for _ in range(3)])
        else:
            ch = isometry_channel(2, 2, int(rng.integers(2, 5)), rng)
        pt = transfer(ch)
        r = 0.9 * _unit_bloch(seed + 1)
        lhs = density_to_bloch(ch.apply_matrix(bloch_to_density(r).mat)).r
        assert np.max(np.abs(lhs - (pt.T @ r + pt.t))) < 1e-10

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_per_pauli_reference(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            ch = isometry_channel(2, 2, 2 + seed % 3, rng)  # not unital
        else:
            probs = rng.dirichlet(np.ones(3))
            ch = random_unitary(probs, [haar_unitary(2, rng) for _ in range(3)])
        got, want = transfer(ch), reference_transfer(ch)
        assert np.array_equal(got.T, want.T) and np.array_equal(got.t, want.t)

    def test_transfer_never_applies_the_channel(self, monkeypatch):
        calls = []
        apply_matrix = Channel.apply_matrix

        def counted(self, x):
            calls.append(x)
            return apply_matrix(self, x)

        monkeypatch.setattr(Channel, "apply_matrix", counted)
        transfer(PAULI_MIX)
        assert len(calls) == 0
        classify(PAULI_MIX)  # unitality is read from the transfer's t
        assert len(calls) == 0

    def test_rejects_non_qubit_channels(self):
        with pytest.raises(DimensionMismatch):
            transfer(depolarizing(1.0, 3))

    def test_transfer_parts_must_be_real(self):
        with pytest.raises(ValueError):
            PauliTransfer(1j * np.eye(3), np.zeros(3))


class TestClassify:
    def test_identity_has_no_private_states(self):
        assert isinstance(classify(IDENTITY), Empty)

    def test_full_depolarizing_privatizes_everything(self):
        assert isinstance(classify(FULL_DEPOLARIZING), AllStates)

    def test_dephasing_gives_equator(self):
        out = classify(DEPHASING)
        assert isinstance(out, GreatCircle)
        assert np.allclose(out.normal, [0.0, 0.0, 1.0])
        assert not np.signbit(out.normal).any()

    def test_pauli_mix_gives_x_axis_pair(self):
        out = classify(PAULI_MIX)
        assert isinstance(out, AntipodalPair)
        s = 1 / np.sqrt(2)
        assert np.allclose(out.states[0], [s, s])
        assert np.allclose(out.states[1], [s, -s])

    def test_rejects_non_unital(self):
        with pytest.raises(NotUnital):
            classify(AMP_DAMP)

    def test_not_unital_exactly_when_is_unital_is_false(self):
        # unital mixes, generic isometries, and amplitude damping between
        # unitaries, where E(1/2) - 1/2 has eigenvalues +-gamma/2, so an entry
        # of at least gamma/(2 sqrt 2) >= 1.1e-6
        rng = np.random.default_rng(21)
        verdicts = set()
        for i in range(1200):
            if i % 3 == 0:
                probs = rng.dirichlet(np.ones(1 + i % 4))
                ch = random_unitary(probs, [haar_unitary(2, rng) for _ in probs])
            elif i % 3 == 1:
                ch = isometry_channel(2, 2, 1 + i % 4, rng)
            else:
                g = 10 ** rng.uniform(-5.5, 0)
                damp = [[[1, 0], [0, np.sqrt(1 - g)]], [[0, np.sqrt(g)], [0, 0]]]
                ch = from_kraus(haar_unitary(2, rng) @ np.array(damp) @ haar_unitary(2, rng))
            rows = ch.kraus.transpose(1, 0, 2).reshape(2, -1)
            dev = max_abs_diff(rows @ rows.conj().T / 2, np.eye(2) / 2)
            assert dev < 1e-12 or dev >= 1e-6
            try:
                classify(ch)
                raised = False
            except NotUnital:
                raised = True
            assert raised is (not is_unital(ch))
            verdicts.add(raised)
        assert verdicts == {False, True}

    def test_tags_and_nullities(self):
        assert (classify(IDENTITY).tag, classify(IDENTITY).nullity) == ("Empty", 0)
        assert classify(DEPHASING).nullity == 2
        assert classify(PAULI_MIX).nullity == 1
        assert classify(FULL_DEPOLARIZING).nullity == 3


class TestSampling:
    def test_empty_yields_nothing(self):
        assert sample_private_states(Empty(), 5) == []

    def test_pair_yields_both_states(self):
        out = sample_private_states(classify(PAULI_MIX), 2)
        assert len(out) == 2

    def test_axis_aligned_circle_hits_axes(self):
        out = sample_private_states(classify(DEPHASING), 4)
        blochs = [density_to_bloch(np.outer(p, p.conj())).r for p in out]
        expected = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
        for b, e in zip(blochs, expected):
            assert np.max(np.abs(b - np.array(e, dtype=float))) < 1e-12

    def test_sphere_covering_is_spread_out(self):
        out = sample_private_states(AllStates(), 50)
        assert len(out) == 50
        blochs = np.array([density_to_bloch(np.outer(p, p.conj())).r for p in out])
        gram = blochs @ blochs.T
        np.fill_diagonal(gram, -1.0)
        assert gram.max() < 1.0 - 1e-6

    @pytest.mark.parametrize("ch", [DEPHASING, FULL_DEPOLARIZING, PAULI_MIX])
    def test_samples_are_actually_private(self, ch):
        for psi in sample_private_states(classify(ch), 16):
            out = ch.apply_matrix(np.outer(psi, psi.conj()))
            assert max_abs_diff(out, np.eye(2) / 2) < 1e-9

    def test_rejects_non_positive_count(self):
        with pytest.raises(ValueError):
            sample_private_states(AllStates(), 0)

    @pytest.mark.parametrize("count", [2.5, 3.0, True, np.bool_(True), "3"])
    def test_rejects_counts_that_are_not_integers(self, count):
        with pytest.raises(ValueError, match="must be integers"):
            sample_private_states(AllStates(), count)

    def test_a_circle_is_sampled_at_its_own_tolerance(self):
        # the normal is 1e-8 off unit, so every in-plane point is too
        s = GreatCircle(np.array([0.0, 0.0, 1.0 + 1e-8]), ToleranceConfig(1e-7))
        kets = sample_private_states(s, 4)
        assert len(kets) == 4
        for psi in kets:
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-7

    @pytest.mark.parametrize("s", ["AllStates", None, bloch.PrivateStateSet()])
    def test_rejects_what_is_not_a_classified_set(self, s):
        with pytest.raises(TypeError):
            sample_private_states(s, 3)

    @pytest.mark.parametrize("count", [1, 8, 100, 10_000])
    @pytest.mark.parametrize(
        "s",
        [AllStates(), GreatCircle(np.array([0.0, 0.0, 1.0])), GreatCircle(_unit_bloch(3))],
        ids=["sphere", "equator", "tilted-circle"],
    )
    def test_batched_kets_equal_the_per_point_reference(self, s, count):
        points = (
            bloch._fibonacci_sphere(count)
            if isinstance(s, AllStates)
            else bloch._circle_points(s.normal, count)
        )
        got = np.array(sample_private_states(s, count))
        assert got.shape == (count, 2)
        assert np.array_equal(got, np.array([reference_ket(r) for r in points]))


class TestUnitaryCovariance:
    def _conjugate(self, ch, u):
        # x -> u ch(u* x u) u*
        pre = from_kraus([u.conj().T])
        post = from_kraus([u])
        from pqclab.channels import compose

        return compose(compose(pre, ch), post)

    def _rotation(self, u):
        return transfer(from_kraus([u])).T

    @pytest.mark.parametrize("seed", range(6))
    def test_circle_normal_rotates(self, seed):
        u = haar_unitary(2, np.random.default_rng(seed))
        out = classify(self._conjugate(DEPHASING, u))
        assert isinstance(out, GreatCircle)
        rotated = self._rotation(u) @ np.array([0.0, 0.0, 1.0])
        assert abs(abs(out.normal @ rotated) - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_pair_axis_rotates(self, seed):
        u = haar_unitary(2, np.random.default_rng(seed))
        out = classify(self._conjugate(PAULI_MIX, u))
        assert isinstance(out, AntipodalPair)
        b = density_to_bloch(np.outer(out.states[0], out.states[0].conj())).r
        rotated = self._rotation(u) @ np.array([1.0, 0.0, 0.0])
        assert abs(abs(b @ rotated) - 1.0) < 1e-9


class TestValidation:
    def test_bloch_vector_shape(self):
        with pytest.raises(DimensionMismatch):
            BlochVector(np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bloch_vector_needs_finite_entries(self, bad):
        r = np.array([0.0, bad, 0.0])
        for make in (BlochVector, bloch_to_density, bloch_to_ket):
            with pytest.raises(ValueError, match="NaN or Inf"):
                make(r)

    @pytest.mark.parametrize(
        "pair",
        [
            ([2.0, 0.0], [0.0, 3.0]),
            ([0.0, 0.0], [0.0, 0.0]),
            ([1.0, 0.0], [0.0, 1.0 + 1e-7]),
        ],
        ids=["long-kets", "zero-kets", "just-over-atol"],
    )
    def test_antipodal_pair_needs_unit_kets(self, pair):
        with pytest.raises(ValueError, match="unit norm"):
            AntipodalPair(tuple(np.array(s) for s in pair))

    @pytest.mark.parametrize(
        "pair", [([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), ([1.0], [0.0]), (np.eye(2), np.eye(2))]
    )
    def test_antipodal_pair_needs_qubit_kets(self, pair):
        with pytest.raises(DimensionMismatch):
            AntipodalPair(tuple(np.array(s) for s in pair))

    @pytest.mark.parametrize("normal", [[0.0, 1.0], [0.0, 0.0, 1.0, 0.0], np.eye(3)])
    def test_great_circle_needs_a_3_vector(self, normal):
        with pytest.raises(DimensionMismatch):
            GreatCircle(np.array(normal))

    @pytest.mark.parametrize(
        "T, t", [(np.eye(2), np.zeros(3)), (np.eye(3), np.zeros(2)), (np.eye(3), np.zeros((3, 1)))]
    )
    def test_pauli_transfer_needs_a_3x3_T_and_a_3_vector_t(self, T, t):
        with pytest.raises(DimensionMismatch):
            PauliTransfer(T, t)

    def test_antipodal_pair_must_be_orthogonal(self):
        with pytest.raises(ValueError):
            AntipodalPair((np.array([1.0, 0.0]), np.array([1.0, 0.0])))

    def test_great_circle_needs_unit_normal(self):
        with pytest.raises(ValueError):
            GreatCircle(np.array([0.0, 0.0, 2.0]))

    @pytest.mark.parametrize("off, default_accepts", [(1e-7, False), (1e-10, True)])
    def test_tolerance_sets_the_acceptance_boundary(self, off, default_accepts):
        # off lies between the looser and the tighter atol; the default atol is 1e-9
        loose, tight = ToleranceConfig(off * 10), ToleranceConfig(off / 10)
        pair = (np.array([1.0, 0.0]), np.array([off, 1.0]) / np.hypot(off, 1.0))
        normal = np.array([0.0, 0.0, 1.0 + off])
        for make, arg in ((AntipodalPair, pair), (GreatCircle, normal)):
            make(arg, loose)
            with pytest.raises(ValueError):
                make(arg, tight)
            if default_accepts:
                make(arg)
            else:
                with pytest.raises(ValueError):
                    make(arg)

    def test_classify_passes_its_tolerance_on(self):
        tol = ToleranceConfig(1e-7)
        assert classify(DEPHASING, tol).tol is tol
        assert classify(PAULI_MIX, tol).tol is tol

    def test_nan_inputs_are_rejected(self):
        with pytest.raises(ValueError):
            AntipodalPair((np.array([1.0, 0.0]), np.array([np.nan, 1.0])))
        with pytest.raises(ValueError):
            GreatCircle(np.array([0.0, 0.0, np.nan]))
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            with pytest.raises(ValueError, match="NaN or Inf"):
                PauliTransfer(np.full((3, 3), bad), np.zeros(3))
            with pytest.raises(ValueError, match="NaN or Inf"):
                PauliTransfer(np.eye(3), np.array([0.0, bad, 0.0]))
