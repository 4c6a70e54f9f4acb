"""Concrete finite-dimensional C*-algebras in block form, and the theory
of trace vectors and separating vectors over them.

An algebra is stored as a list of blocks (m_i, n_i), an optional zero
summand of dimension k, and a basis-change unitary U. Its elements are the
matrices

    U^dag ( sum_i 1_{m_i} (x) b_i  (+)  0_k ) U,   b_i in M_{n_i},

so U carries computational coordinates to the internal block coordinates.
A unit vector v is a trace vector with respect to a state rho0 when
<v|a|v> = trace(rho0 a) for every algebra element a; checking the canonical
basis suffices by linearity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import DensityOperator
from .errors import (
    DimensionMismatch,
    Infeasible,
    NoTraceVectors,
    NotUnitalAlgebra,
    NotUnitVector,
    Rho0NotInAlgebra,
)
from .linalg import (
    DEFAULT_TOL,
    CMatrix,
    ToleranceConfig,
    as_cmatrix,
    freeze,
    max_abs_diff,
)

__all__ = [
    "AlgebraSpec",
    "TraceVectorReport",
    "diagonal_algebra",
    "scalar_algebra",
    "full_matrix_algebra",
    "canonical_basis",
    "project_onto_algebra",
    "projection_superoperator",
    "is_trace_vector",
    "is_separating",
    "has_trace_vector",
    "max_entangled_trace_vector",
    "trace_vector_onb",
    "trace_vector_wrt",
]


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """Block-form C*-algebra U^dag (sum_i 1_{m_i} (x) M_{n_i} (+) 0_k) U.

    Parameters
    ----------
    blocks : sequence of (int, int)
        Pairs (m_i, n_i): multiplicity and block size, both positive.
    zero_dim : int
        Dimension k of the zero summand; the algebra is unital iff k = 0.
    basis_change : array_like or None
        Unitary U of size n x n, n = sum m_i n_i + k. None means identity.
    """

    blocks: tuple[tuple[int, int], ...]
    zero_dim: int = 0
    basis_change: CMatrix | None = None
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self):
        blocks = tuple((int(m), int(n)) for m, n in self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        if any(m < 1 or n < 1 for m, n in blocks):
            raise ValueError(f"block sizes must be positive, got {blocks}")
        if self.zero_dim < 0:
            raise ValueError(f"zero_dim must be nonnegative, got {self.zero_dim}")
        object.__setattr__(self, "blocks", blocks)
        d = sum(m * n for m, n in blocks) + self.zero_dim
        u = np.eye(d, dtype=np.complex128) if self.basis_change is None else as_cmatrix(self.basis_change)
        if u.shape != (d, d):
            raise DimensionMismatch(f"basis change must be {d}x{d}, got {u.shape}")
        if max_abs_diff(u.conj().T @ u, np.eye(d)) > self.tol.atol:
            raise ValueError("basis change fails U^dag U = 1 within atol")
        object.__setattr__(self, "basis_change", freeze(u))

    @property
    def dim(self) -> int:
        return self.basis_change.shape[0]

    @property
    def is_unital(self) -> bool:
        return self.zero_dim == 0

    @property
    def num_basis(self) -> int:
        return sum(n * n for _, n in self.blocks)

    def block_offsets(self) -> list[int]:
        """Start index of each block in internal coordinates."""
        offs = [0]
        for m, n in self.blocks:
            offs.append(offs[-1] + m * n)
        return offs

    @cached_property
    def _grids(self) -> list[np.ndarray]:
        """Per block i: the rows of U for that block, shaped (m_i, n_i, dim).

        Everything downstream (basis, projection, checks) is an einsum over
        these tensors, which keeps repeated queries on one algebra cheap.
        """
        offs = self.block_offsets()
        return [
            self.basis_change[offs[i] : offs[i + 1], :].reshape(m, n, self.dim)
            for i, (m, n) in enumerate(self.blocks)
        ]

    @cached_property
    def _basis_stack(self) -> np.ndarray:
        """All canonical basis elements stacked as an array (K, dim, dim)."""
        # element (s, t) of block i is sum_a |row(a,s)><row(a,t)| in U coordinates
        return np.concatenate(
            [
                np.einsum("asx,aty->stxy", g.conj(), g).reshape(-1, self.dim, self.dim)
                for g in self._grids
            ]
        )

    def _basis_weights(self) -> np.ndarray:
        """1/m_i for each of the n_i^2 basis elements of block i, the inverse
        squared Hilbert-Schmidt norms of the canonical basis."""
        return np.repeat([1.0 / m for m, _ in self.blocks], [n * n for _, n in self.blocks])


def diagonal_algebra(d: int, basis_change=None) -> AlgebraSpec:
    """The algebra of diagonal d x d matrices."""
    return AlgebraSpec(tuple((1, 1) for _ in range(d)), 0, basis_change)


def scalar_algebra(d: int, basis_change=None) -> AlgebraSpec:
    """Multiples of the identity on dimension d."""
    return AlgebraSpec(((d, 1),), 0, basis_change)


def full_matrix_algebra(d: int, basis_change=None) -> AlgebraSpec:
    """All of M_d."""
    return AlgebraSpec(((1, d),), 0, basis_change)


def canonical_basis(alg: AlgebraSpec) -> list[CMatrix]:
    """The sum_i n_i^2 matrices U^dag (1_{m_i} (x) E_st) U, block by block,
    E_st in row-major order; a linear basis of the algebra."""
    return [freeze(b) for b in alg._basis_stack]


def project_onto_algebra(alg: AlgebraSpec, x) -> CMatrix:
    """Hilbert-Schmidt orthogonal projection of a matrix onto the algebra.

    In internal coordinates each diagonal block of U x U^dag is averaged
    over the multiplicity factor, everything else is dropped.
    """
    x = as_cmatrix(x)
    d = alg.dim
    if x.shape != (d, d):
        raise DimensionMismatch(f"expected {d}x{d}, got {x.shape}")
    out = np.zeros((d, d), dtype=np.complex128)
    for (m, _), g in zip(alg.blocks, alg._grids):
        w = np.einsum("asx,xy,aty->st", g, x, g.conj()) / m
        out += np.einsum("asx,st,aty->xy", g.conj(), w, g)
    return out


def projection_superoperator(alg: AlgebraSpec) -> CMatrix:
    """Matrix of :func:`project_onto_algebra` on row-major vectorized input.

    The canonical basis is Hilbert-Schmidt orthogonal with squared norms
    equal to the block multiplicities, so the projection is the weighted
    sum of rank-one superoperators sum_k vec(b_k) vec(b_k)^dag / m_k over
    it, formed as one product of the stacked basis with its conjugate.
    """
    flat = alg._basis_stack.reshape(alg.num_basis, -1)
    return (flat.T * alg._basis_weights()) @ flat.conj()


@dataclass(frozen=True, eq=False)
class TraceVectorReport:
    """Outcome of a trace-vector check.

    max_violation is the worst |<v|a|v> - trace(rho0 a)| over the canonical
    basis; the check passes when it stays within atol.
    """

    vector: np.ndarray
    rho0: DensityOperator
    max_violation: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(self, "vector", freeze(np.asarray(self.vector, dtype=np.complex128)))


def _as_state(rho0, dim: int, tol: ToleranceConfig) -> DensityOperator:
    state = rho0 if isinstance(rho0, DensityOperator) else DensityOperator(rho0, tol)
    if state.dim != dim:
        raise DimensionMismatch(f"state dimension {state.dim} vs algebra dimension {dim}")
    return state


def _state_in_algebra(alg: AlgebraSpec, rho0, tol: ToleranceConfig) -> DensityOperator:
    """rho0 as a state on the algebra's space that is also one of its
    elements; raises Rho0NotInAlgebra otherwise."""
    state = _as_state(rho0, alg.dim, tol)
    if max_abs_diff(state.mat, project_onto_algebra(alg, state.mat)) > tol.atol:
        raise Rho0NotInAlgebra("state is not an element of the algebra within atol")
    return state


def is_trace_vector(v, alg: AlgebraSpec, rho0, tol: ToleranceConfig = DEFAULT_TOL) -> TraceVectorReport:
    """Check <v|a|v> = trace(rho0 a) over the canonical basis of the algebra.

    Raises NotUnitVector unless ||v|| = 1 within atol; rho0 = 1_n/n gives
    the plain trace-vector condition.
    """
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != alg.dim:
        raise DimensionMismatch(f"vector length {v.size} vs algebra dimension {alg.dim}")
    nrm = np.linalg.norm(v)
    if not (abs(nrm - 1.0) <= tol.atol):
        raise NotUnitVector(f"vector norm {nrm} is not 1 within atol")
    state = _as_state(rho0, alg.dim, tol)
    basis = alg._basis_stack
    lhs = np.einsum("kij,i,j->k", basis, v.conj(), v)
    rhs = np.einsum("kij,ji->k", basis, state.mat)
    violation = float(np.max(np.abs(lhs - rhs)))
    return TraceVectorReport(v, state, violation, violation <= tol.atol)


def is_separating(v, alg: AlgebraSpec, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff a |v> = 0 forces a = 0 within the algebra, tested as full
    column rank of the stacked images (basis element) |v>."""
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != alg.dim:
        raise DimensionMismatch(f"vector length {v.size} vs algebra dimension {alg.dim}")
    images = np.einsum("kij,j->ik", alg._basis_stack, v)
    s = np.linalg.svd(images, compute_uv=False)
    cutoff = tol.atol * max(float(s[0]), 1.0)
    return int(np.sum(s > cutoff)) == alg.num_basis


def has_trace_vector(alg: AlgebraSpec) -> bool:
    """Unital algebras admit trace vectors exactly when every block has
    multiplicity at least its size."""
    if not alg.is_unital:
        raise NotUnitalAlgebra("trace-vector existence is decided for unital algebras only")
    return all(m >= n for m, n in alg.blocks)


def max_entangled_trace_vector(m: int, n: int) -> np.ndarray:
    """The vector (1/sqrt(n)) sum_{i<n} e_i (x) f_i on C^m (x) C^n, a trace
    vector of the single-block algebra 1_m (x) M_n when m >= n."""
    if m < n:
        raise ValueError(f"need m >= n, got ({m}, {n})")
    v = np.zeros(m * n, dtype=np.complex128)
    for i in range(n):
        v[i * n + i] = 1.0
    return v / np.sqrt(n)


def _orbit_seed_and_step(alg: AlgebraSpec) -> tuple[np.ndarray, np.ndarray]:
    """Internal-coordinate seed vector v0 and unitary R whose orbit
    {R^a v0 : a < n} is an orthonormal family of trace vectors.

    R restricts to each block as C_i (x) D_i with C_i diagonal in the
    Fourier basis of the multiplicity factor and D_i a phase ramp on the
    block factor. The eigenphases of R are staggered so that each block
    claims a disjoint run of n-th roots of unity, every root carrying
    weight exactly 1/n of v0; orthogonality of the orbit is then a
    character sum, and both factors leave the trace-vector property intact
    (C_i commutes with the algebra, D_i is a member of it).
    """
    n = alg.dim
    omega = np.exp(2j * np.pi / n)
    v0 = np.zeros(n, dtype=np.complex128)
    step = np.zeros((n, n), dtype=np.complex128)
    offs = alg.block_offsets()
    idx = 0
    for i, (m, ni) in enumerate(alg.blocks):
        d = m * ni
        # block seed: sqrt(m/n) * sum_{l<ni} |e_l f_l>, squared norm d/n
        bs = np.zeros(d, dtype=np.complex128)
        for l in range(ni):
            bs[l * ni + l] = np.sqrt(m / n)
        v0[offs[i] : offs[i + 1]] = bs
        f = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        c = (f * (omega ** (idx + np.arange(m) * ni))) @ f.conj().T
        dphase = np.diag(omega ** np.arange(ni))
        step[offs[i] : offs[i + 1], offs[i] : offs[i + 1]] = np.kron(c, dphase)
        idx += d
    return v0, step


def trace_vector_onb(alg: AlgebraSpec) -> list[np.ndarray]:
    """An orthonormal basis of C^n made entirely of trace vectors of the
    algebra (with respect to 1_n/n).

    Exists iff has_trace_vector; built as the orbit of a block direct sum
    of maximally entangled vectors under a shift-and-phase unitary.
    """
    if not alg.is_unital:
        raise NotUnitalAlgebra("orthonormal trace-vector bases require a unital algebra")
    if not has_trace_vector(alg):
        raise NoTraceVectors(f"some block has m < n: {alg.blocks}")
    v, step = _orbit_seed_and_step(alg)
    udag = alg.basis_change.conj().T
    out = []
    for _ in range(alg.dim):
        out.append(udag @ v)
        v = step @ v
    return out


def trace_vector_wrt(alg: AlgebraSpec, rho0, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Construct a unit vector v with <v|a|v> = trace(rho0 a) on the algebra.

    rho0 must itself lie in the algebra. Per block the condition pins the
    Gram matrix of the vector's (multiplicity x size) component matrix V to
    V^dag V = (block weight)^T, solved by an eigendecomposition square root
    padded to m_i rows. Ranks count eigenvalues above atol; a block weight
    of rank above m_i is infeasible, and so is rank 0 in every block.
    """
    if not alg.is_unital:
        raise NotUnitalAlgebra("trace vectors with respect to a state require a unital algebra")
    state = _state_in_algebra(alg, rho0, tol)
    v = np.zeros(alg.dim, dtype=np.complex128)
    for i, ((m, _), g) in enumerate(zip(alg.blocks, alg._grids)):
        w = np.einsum("asx,xy,aty->st", g, state.mat, g.conj())  # = m * (block weight of rho0)
        lam, vecs = np.linalg.eigh((w.T + w.conj()) / 2)
        order = np.argsort(lam)[::-1]
        lam, vecs = np.clip(lam[order], 0.0, None), vecs[:, order]
        rank = int(np.sum(lam > tol.atol))
        if rank > m:
            raise Infeasible(
                f"block {i} weight has rank {rank} above multiplicity {m}; no such vector exists"
            )
        comp = np.sqrt(lam[:rank]) * vecs[:, :rank].conj()  # column j is row j of V
        v += np.einsum("sa,asx->x", comp, g[:rank].conj())
    if not v.any():
        raise Infeasible(f"every block weight has rank 0 at the rank cutoff atol = {tol.atol:g}")
    return v / np.linalg.norm(v)
