"""Trace-preserving conditional expectation channels onto block algebras,
axiom verification, and private-quantum-channel checks.

The conditional expectation onto an algebra is its Hilbert-Schmidt
orthogonal projection, which for a unital block algebra is a quantum
channel. A channel E privatizes a set of pure states S to a target state
rho0 when E maps every member of S to rho0; for conditional expectation
channels this happens exactly when S consists of trace vectors with
respect to rho0, and both sides of that equivalence are implemented here
as independently checkable routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebras import (
    AlgebraSpec,
    _state_in_algebra,
    is_trace_vector,
    projection_superoperator,
)
from .channels import Channel, DensityOperator, choi, from_kraus, superoperator
from .errors import DimensionMismatch, NotUnitalAlgebra, NotUnitVector
from .linalg import DEFAULT_TOL, ToleranceConfig, freeze, is_psd, max_abs_diff, vec

__all__ = [
    "PQCInstance",
    "AxiomReport",
    "PqcReport",
    "condexp_channel",
    "verify_condexp_axioms",
    "is_pqc",
    "private_states_certificate",
    "collective_noise_channel_n2",
]


@dataclass(frozen=True, eq=False)
class PQCInstance:
    """A candidate private channel: pure states, channel, target state."""

    states: tuple[np.ndarray, ...]
    channel: Channel
    rho0: DensityOperator
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        states = tuple(np.asarray(s, dtype=np.complex128).reshape(-1) for s in self.states)
        if not states:
            raise ValueError("need at least one state")
        for s in states:
            if s.size != self.channel.dim_in:
                raise DimensionMismatch(
                    f"state length {s.size} vs channel input {self.channel.dim_in}"
                )
            if not (abs(np.linalg.norm(s) - 1.0) <= self.tol.atol):
                raise NotUnitVector(f"state norm {np.linalg.norm(s)} is not 1 within atol")
        if self.rho0.dim != self.channel.dim_out:
            raise DimensionMismatch(
                f"target dimension {self.rho0.dim} vs channel output {self.channel.dim_out}"
            )
        object.__setattr__(self, "states", tuple(freeze(s) for s in states))


@dataclass(frozen=True)
class AxiomReport:
    """Worst-case violations of the conditional expectation axioms.

    fixes_subalgebra: max deviation of E(b) from b over the canonical basis.
    bimodule: the larger of the left and right module violations, the max
    deviations of E(b a) from b P(E(a)) and of E(a b) from P(E(a)) b over
    basis elements b and all matrix units a, where P projects onto the
    algebra; the P makes maps whose output leaves the algebra fail here,
    and it is the identity on any algebra-valued map. Both within atol
    imply E(b1 a b2) = b1 P(E(a)) b2 for all basis pairs (see
    verify_condexp_axioms). positive: Choi matrix PSD.
    trace_preserving: max trace deviation on matrix units.
    """

    fixes_subalgebra: float
    bimodule: float
    positive: bool
    trace_preserving: float
    passed: bool


@dataclass(frozen=True)
class PqcReport:
    """Privacy verdict with the residual ||E(phi phi*) - rho0|| per state."""

    verdict: bool
    residuals: tuple[float, ...]

    def __bool__(self) -> bool:
        return self.verdict


def condexp_channel(alg: AlgebraSpec, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """The trace-preserving conditional expectation onto a unital algebra,
    as a validated Channel.

    Built in closed form from the commutant's matrix units: block i gives
    the m_i^2 Kraus operators m_i^{-1/2} U^dag (E_ab (x) 1_{n_i}) U, with
    (a, b) in row-major order, so there are sum_i m_i^2 of them. Like any
    Kraus list it is fixed only up to Choi equality. Non-unital algebras
    are rejected: dropping the zero summand loses trace.
    """
    if not alg.is_unital:
        raise NotUnitalAlgebra("the projection onto a non-unital algebra is not trace preserving")
    ks = []
    for (m, _), g in zip(alg.blocks, alg._grids()):
        k = np.einsum("asx,bsy->abxy", g.conj(), g) * np.sqrt(1.0 / m)
        ks.extend(k.reshape(m * m, alg.dim, alg.dim))
    return from_kraus(ks, tol)


def verify_condexp_axioms(
    ch: Channel, alg: AlgebraSpec, tol: ToleranceConfig = DEFAULT_TOL
) -> AxiomReport:
    """Measure how far a channel is from being the conditional expectation
    onto the given algebra.

    The subalgebra axiom is checked on the canonical basis, positivity
    through the Choi matrix, and trace preservation on all matrix units.

    The bimodule axiom E(b1 X b2) = b1 P(E(X)) b2 is checked one side at a
    time. With S the superoperator of E, P that of the projection onto the
    algebra, L_b = b (x) 1 and R_b = 1 (x) b^T (so vec(bX) = L_b vec(X) and
    vec(Xb) = R_b vec(X)), the left and right module identities

        S L_b = L_b P S,    S R_b = R_b P S    for every basis element b

    imply the joint one: S L_b1 R_b2 = L_b1 P S R_b2 = L_b1 P R_b2 P S, and
    P R_b2 P = R_b2 P because P(Y) b2 already lies in the algebra, which is
    closed under multiplication. So S L_b1 R_b2 = L_b1 R_b2 P S. For a
    unital algebra the converse holds too (take b1 or b2 = 1, a sum of
    basis elements), so the verdict is that of the joint check over all
    basis pairs, at 2K instead of K^2 products. The reported bimodule
    value is the larger of the left and right violations. L_b and R_b act
    as index maps on the reshaped superoperator, one matrix product each.
    """
    n = alg.dim
    if ch.dim_in != n or ch.dim_out != n:
        raise DimensionMismatch(f"channel dims ({ch.dim_in}, {ch.dim_out}) vs algebra dim {n}")
    s = superoperator(ch)
    basis = alg._basis_stack()

    flat = basis.reshape(alg.num_basis, -1)
    fixes = float(np.max(np.abs(flat @ s.T - flat)))

    # rows of S and PS are indexed (i, j) by output matrix units, columns
    # (k, l) by input ones; each product below contracts one of the four
    # indices with b and lands in that same (i, j, k, l) order
    ps = projection_superoperator(alg) @ s
    s_ij_k_l, s_ijk_l = s.reshape(n * n, n, n), s.reshape(-1, n)
    ps_i_jkl, ps_i_j_kl = ps.reshape(n, -1), ps.reshape(n, n, n * n)
    bimodule = 0.0
    for b in basis:
        # S L_b: sum_k' S[ij, k'l] b[k', k];  L_b P S: sum_i' b[i, i'] PS[i'j, kl]
        left = max_abs_diff((b.T @ s_ij_k_l).ravel(), (b @ ps_i_jkl).ravel())
        # S R_b: sum_l' S[ij, kl'] b[l, l'];  R_b P S: sum_j' b[j', j] PS[ij', kl]
        right = max_abs_diff((s_ijk_l @ b.T).ravel(), (b.T @ ps_i_j_kl).ravel())
        bimodule = max(bimodule, left, right)

    positive = is_psd(choi(ch), tol)

    tr_row = vec(np.eye(n)).conj() @ s
    trace_pres = float(np.max(np.abs(tr_row - vec(np.eye(n)).conj())))

    passed = (
        fixes <= tol.atol and bimodule <= tol.atol and positive and trace_pres <= tol.atol
    )
    return AxiomReport(fixes, bimodule, positive, trace_pres, passed)


def is_pqc(inst: PQCInstance, tol: ToleranceConfig = DEFAULT_TOL) -> PqcReport:
    """True iff the channel sends every listed pure state to the target."""
    target = inst.rho0.mat
    residuals = []
    for s in inst.states:
        out = inst.channel.apply_matrix(np.outer(s, s.conj()))
        residuals.append(max_abs_diff(out, target))
    return PqcReport(all(r <= tol.atol for r in residuals), tuple(residuals))


def private_states_certificate(
    alg: AlgebraSpec, rho0, v, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Decide privacy of a single state under the conditional expectation
    channel of the algebra, through the trace-vector condition alone.

    This never touches Kraus operators; tests assert it agrees with the
    direct is_pqc route on the constructed channel.
    """
    if not alg.is_unital:
        raise NotUnitalAlgebra("certificate requires a unital algebra")
    state = _state_in_algebra(alg, rho0, tol)
    return is_trace_vector(v, alg, state, tol).passed


def collective_noise_channel_n2() -> tuple[Channel, AlgebraSpec]:
    """The two-qubit collective-noise channel and its fixed algebra.

    The channel uniformly mixes the three-dimensional symmetric (triplet)
    component and leaves the antisymmetric (singlet) component alone:
    rho -> trace(P_s rho) |s><s| + (trace(P_t rho)/3) P_t. Its Kraus list
    is written down directly from the two projectors, independently of the
    conditional expectation construction, and the returned AlgebraSpec
    (blocks (3,1) and (1,1) in the coupled basis) lets the two routes be
    compared.
    """
    rt2 = 1.0 / np.sqrt(2.0)
    t1 = np.array([1, 0, 0, 0], dtype=np.complex128)
    t2 = np.array([0, rt2, rt2, 0], dtype=np.complex128)
    t3 = np.array([0, 0, 0, 1], dtype=np.complex128)
    singlet = np.array([0, rt2, -rt2, 0], dtype=np.complex128)
    triplet = (t1, t2, t3)

    ks = [np.outer(a, b.conj()) / np.sqrt(3.0) for a in triplet for b in triplet]
    ks.append(np.outer(singlet, singlet.conj()))
    channel = from_kraus(ks)
    w = np.column_stack([t1, t2, t3, singlet])
    alg = AlgebraSpec(((3, 1), (1, 1)), 0, w.conj().T)
    return channel, alg
