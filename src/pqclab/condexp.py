"""Trace-preserving conditional expectation channels onto block algebras,
axiom verification, and private-quantum-channel checks.

The conditional expectation onto an algebra is its Hilbert-Schmidt
orthogonal projection, which for a unital block algebra is a quantum
channel. A channel E privatizes a set of pure states S to a target state
rho0 when E maps every member of S to rho0; for conditional expectation
channels this happens exactly when S consists of trace vectors with
respect to rho0, and both sides of that equivalence are implemented here
as independently checkable routes.

A PQCInstance holds its states as one read-only (N, d) stack, and is_pqc
applies the channel to them through one Channel.apply_matrix call per
chunk of outer products, sized by the wider of a state's d_in x d_in outer
product and its d_out x d_out output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebras import (
    AlgebraSpec,
    _block_sums,
    _state_in_algebra,
    is_trace_vector,
)
from .channels import (
    _CHUNK_BYTES,
    Channel,
    DensityOperator,
    _as_density,
    _kraus_product,
    from_kraus,
)
from .errors import DimensionMismatch, NotUnitalAlgebra
from .linalg import DEFAULT_TOL, ToleranceConfig, _unit_rows

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
    """A candidate private channel: pure states, channel, target state.

    The states are held as one read-only (N, dim_in) complex stack, one row
    per state in the order given, as a Channel holds one Kraus stack, and
    is_pqc makes one Channel.apply_matrix call per chunk of its rows. States
    are admitted as is_trace_vector admits its vector, by linalg._unit_rows:
    numbers only, the channel's input length, and unit norm within atol. A
    raw rho0 is validated as a DensityOperator at tol, as is_trace_vector
    validates its target.
    """

    states: np.ndarray
    channel: Channel
    rho0: DensityOperator
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        states = _unit_rows(self.states, "states", self.channel.dim_in, self.tol)
        states = states if isinstance(self.states, (list, tuple)) else states.copy()
        rho0 = _as_density(self.rho0, self.tol, self.channel.dim_out, "target")
        states.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "rho0", rho0)


@dataclass(frozen=True)
class AxiomReport:
    """Worst-case violations of the conditional expectation axioms.

    The three floats are worst entries in the algebra's block coordinates,
    where a matrix X reads U X U^dag and a basis element is 1_m (x) E_st
    (see verify_condexp_axioms). With d the dimension, fixes_subalgebra and
    trace_preserving lie within a factor d, and bimodule within a factor
    d^2, of the same worst entries in computational coordinates, in both
    directions.

    fixes_subalgebra: max deviation of E(b) from b over the canonical basis.
    bimodule: the left module violation, the max deviation of E(b a) from
    b P(E(a)) over basis elements b and all matrix units a, where P
    projects onto the algebra; it equals the right module violation (of
    E(a b) from P(E(a)) b) for every Kraus channel. The P makes maps whose
    output leaves the algebra fail here, and it is the identity on any
    algebra-valued map. Within atol it implies E(b1 a b2) = b1 P(E(a)) b2
    for all basis pairs (see verify_condexp_axioms).
    trace_preserving: max trace deviation on matrix units.
    passed: the three floats are within atol. Positivity needs no check:
    a Kraus stack's Choi matrix is PSD by construction.
    """

    fixes_subalgebra: float
    bimodule: float
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
    Kraus stack it is fixed only up to Choi equality. Non-unital algebras
    are rejected: dropping the zero summand loses trace.
    """
    if not alg.is_unital:
        raise NotUnitalAlgebra("the projection onto a non-unital algebra is not trace preserving")
    u, d = alg.basis_change, alg.dim
    blocks = (
        np.einsum("asx,bsy->abxy", g.conj(), g).reshape(m * m, d, d) * np.sqrt(1.0 / m)
        for (m, n), off in zip(alg.blocks, alg.block_offsets())
        for g in [u[off : off + m * n].reshape(m, n, d)]  # the block's rows of U
    )
    # the per-block list is freed once concatenated, before from_kraus copies the stack
    return from_kraus(np.concatenate(list(blocks)), tol)


def verify_condexp_axioms(
    ch: Channel, alg: AlgebraSpec, tol: ToleranceConfig = DEFAULT_TOL
) -> AxiomReport:
    """Measure how far a channel is from being the conditional expectation
    onto the given algebra.

    Every residual is read in the algebra's block coordinates X' = U X U^dag,
    with U = alg.basis_change. There the channel has the Kraus stack
    U K_a U^dag and the superoperator S', and the basis element (s, t) of a
    block of shape (m, n) is b' = 1_m (x) E_st, the partial permutation
    sum_a |a, s><a, t|. The reported floats are the worst entries there. A
    residual R in computational coordinates reads
    R' = (U (x) conj(U)) R (U (x) conj(U))^dag, so with d = alg.dim the
    fixes_subalgebra and trace_preserving values lie within a factor d, and
    the bimodule value within a factor d^2, of their computational-coordinate
    counterparts, in both directions.

    The subalgebra axiom is checked on the canonical basis and trace
    preservation on all matrix units. Positivity needs no check: the Choi
    matrix sum_a vec(K_a) vec(K_a)^dag of a Kraus stack is PSD by
    construction.

    The bimodule axiom E(b1 X b2) = b1 P(E(X)) b2 is checked on the left
    side only. With S the superoperator of E, P that of the projection onto
    the algebra, L_b = b (x) 1 and R_b = 1 (x) b^T (so vec(bX) = L_b vec(X)
    and vec(Xb) = R_b vec(X)):

    1. The left module identity S L_b = L_b P S, that is
       E(bX) = b P(E(X)), is checked for every basis element b.
    2. By adjoint symmetry it implies the right one, E(Xb) = P(E(X)) b:
       E(Xb) = E(b^dag X^dag)^dag = (b^dag P(E(X^dag)))^dag = P(E(X)) b.
       This uses E(Y^dag) = E(Y)^dag, which holds because a Channel is a
       Kraus stack (sum_a K_a Y^dag K_a^dag), P(Y^dag) = P(Y)^dag, and a
       basis closed under ^dag. So the right residual at (b, X) is the
       adjoint of the left one at (b^dag, X^dag), and over all basis
       elements and matrix units the two maxima are equal.
    3. The two imply the joint identity: S L_b1 R_b2 = L_b1 P S R_b2
       = L_b1 P R_b2 P S, and P R_b2 P = R_b2 P because P(Y) b2 already
       lies in the algebra, which is closed under multiplication. So
       S L_b1 R_b2 = L_b1 R_b2 P S. For a unital algebra the converse holds
       too (take b1 or b2 = 1, a sum of basis elements), so the verdict is
       that of the joint check over all basis pairs, at K instead of K^2
       products.

    In block coordinates S' L_b' and L_b' P'S' each have O(m d^3) nonzero
    entries, so the residuals where both are nonzero are gathered from the
    support rows of S' and the block rows of P'S', blocks of one shape at a
    time, with no product beyond the one that forms S'[x, y, k, l]. Where
    S' L_b' alone is nonzero, its worst entry is the max of
    |S'[x, y, (c, s), l]| over c and l. The max over l is taken once for
    all shapes, in place, so no copy of S' is gathered.
    """
    d = alg.dim
    if ch.dim_in != d or ch.dim_out != d:
        raise DimensionMismatch(f"channel dims ({ch.dim_in}, {ch.dim_out}) vs algebra dim {d}")
    u = alg.basis_change
    # S'[x, y, k, l] of the stack U K_a U^dag, and max_l |S'[x, y, k, l]|
    s = _kraus_product(u @ ch.kraus @ u.conj().T)
    col_max = np.abs(s).max(axis=3)

    fixes = bimodule = 0.0
    for m, n, pos in alg._shape_groups:
        pos_t = pos.transpose(0, 2, 1)
        j, r = np.arange(len(pos))[:, None, None], np.arange(n)
        # (x, y) = ((a, s), (a, t)) of block j runs over the support of b'_jst
        x, y = pos[..., None], pos[..., None, :]

        # E'(b'_jst) = sum_a S'[:, :, (a, s), (a, t)], indexed [x, y, j, s, t]
        fix = s[:, :, x, y].sum(axis=3)
        fix[x, y, j[..., None], r[:, None], r] -= 1.0
        fixes = max(fixes, float(np.abs(fix).max()))

        # row ((a, t), (a, u)) of P'S' is ps[j, t, u] for every a; its other rows vanish
        ps = _block_sums(s, pos) / m
        # S' L_b'_jst is S'[:, :, (c, s), l] at column ((c, t), l), and
        # L_b'_jst P'S' is ps[j, t, u] at row ((a, s), (a, u)). Where both are
        # nonzero, the residual is both[j, a, s, u, c, l] - mixed[j, t, u, c, l]
        both = s[x[..., None], y[..., None], pos_t[:, None, :, None, :]]
        mixed = ps[j[..., None], r[:, None, None], r[:, None], pos_t[:, :, None, :]]
        worst = float(np.abs(both[:, :, :, None] - mixed[:, None, None]).max())
        # S' L_b' alone, at every other row of the columns ((c, t), l): [x, y, j, s]
        lhs = col_max[:, :, pos].max(axis=3)
        lhs[x, y, j[..., None], r[:, None]] = 0.0
        # L_b' P'S' alone, at every other column of its rows: [j, t, k]
        rhs = np.abs(ps).max(axis=(2, 4))
        rhs[j, r[:, None], pos_t] = 0.0
        bimodule = max(bimodule, worst, float(lhs.max()), float(rhs.max()))

    trace_pres = float(np.max(np.abs(np.einsum("xxkl->kl", s) - np.eye(d))))

    passed = fixes <= tol.atol and bimodule <= tol.atol and trace_pres <= tol.atol
    return AxiomReport(fixes, bimodule, trace_pres, passed)


def is_pqc(inst: PQCInstance, tol: ToleranceConfig = DEFAULT_TOL) -> PqcReport:
    """True iff the channel sends every listed pure state to the target.

    The states' outer products are formed a chunk at a time, and each chunk
    goes through one Channel.apply_matrix call, which holds nothing per state
    but its d_in x d_in input and d_out x d_out output. So a chunk holds as
    many states as fit in the byte budget ``_CHUNK_BYTES`` by the wider of
    the two, and at least one. The channel's superoperator is formed on its
    first application and kept with it, outside the budget. The residuals,
    in the order of the states, are those of one apply_matrix call per state.
    """
    states, target = inst.states, inst.rho0.mat
    step = max(1, _CHUNK_BYTES // (states.itemsize * max(inst.channel.kraus.shape[1:]) ** 2))
    residuals = []
    for lo in range(0, len(states), step):
        chunk = states[lo : lo + step]
        out = inst.channel.apply_matrix(chunk[:, :, None] * chunk.conj()[:, None, :])
        residuals.extend(np.abs(out - target).max(axis=(1, 2)).tolist())
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
