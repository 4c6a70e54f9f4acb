"""Concrete finite-dimensional C*-algebras in block form, and the theory
of trace vectors and separating vectors over them.

An algebra is stored as a list of blocks (m_i, n_i), an optional zero
summand of dimension k, and a basis-change unitary U. Its elements are the
matrices

    U^dag ( sum_i 1_{m_i} (x) b_i  (+)  0_k ) U,   b_i in M_{n_i},

so U carries computational coordinates to the internal block coordinates
X' = U X U^dag, where every computation here works on index grids of the
blocks; only canonical_basis builds basis matrices. The two trace-vector
constructions are closed forms on those grids: each vector of the
orthonormal basis is a Fourier sum per block shape, and the trace vector
with respect to a state is the PSD square root of each block weight.
A unit vector v is a trace vector with respect to a state rho0 when
<v|a|v> = trace(rho0 a) for every algebra element a; checking the canonical
basis suffices by linearity. With V the (m, n) reshape of a block of U v
and W the block's sums of U rho0 U^dag over the multiplicity, that is
V^dag V = W^T on every block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import DensityOperator, _as_density
from .errors import (
    DimensionMismatch,
    Infeasible,
    NoTraceVectors,
    NotUnitalAlgebra,
    Rho0NotInAlgebra,
)
from .linalg import (
    DEFAULT_TOL,
    CMatrix,
    ToleranceConfig,
    _is_unitary,
    _numeric,
    _psd_kept,
    _size,
    _unit_rows,
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

    Projections and checks read the blocks through the cached _shape_groups.
    """

    blocks: tuple[tuple[int, int], ...]
    zero_dim: int = 0
    basis_change: CMatrix | None = None
    tol: ToleranceConfig = field(default=DEFAULT_TOL, repr=False, compare=False)

    def __post_init__(self):
        try:
            pairs = [(m, n) for m, n in self.blocks]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"blocks must be (m, n) pairs, got {self.blocks!r}") from exc
        blocks = tuple(tuple(_size(x, "block sizes", positive=True) for x in b) for b in pairs)
        zero_dim = _size(self.zero_dim, "zero_dim")
        if not blocks:
            raise ValueError("need at least one block")
        if zero_dim < 0:
            raise ValueError(f"zero_dim must be nonnegative, got {zero_dim}")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "zero_dim", zero_dim)
        d = sum(m * n for m, n in blocks) + zero_dim
        u = np.eye(d, dtype=np.complex128) if self.basis_change is None else as_cmatrix(self.basis_change)
        if u.shape != (d, d):
            raise DimensionMismatch(f"basis change must be {d}x{d}, got {u.shape}")
        if not _is_unitary(u, self.tol):
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
    def _shape_groups(self) -> list[tuple[int, int, np.ndarray]]:
        """(m, n, pos) for each distinct block shape (m, n), where pos[j, a, s]
        is the block coordinate of row (a, s) of the j-th block of that shape."""
        offsets: dict[tuple[int, int], list[int]] = {}
        for shape, off in zip(self.blocks, self.block_offsets()):
            offsets.setdefault(shape, []).append(off)
        return [
            (m, n, np.add.outer(offs, np.arange(m * n)).reshape(-1, m, n))
            for (m, n), offs in offsets.items()
        ]


def diagonal_algebra(d: int, basis_change=None) -> AlgebraSpec:
    """The algebra of diagonal d x d matrices."""
    return AlgebraSpec(((1, 1),) * _size(d, "dimensions"), 0, basis_change)


def scalar_algebra(d: int, basis_change=None) -> AlgebraSpec:
    """Multiples of the identity on dimension d."""
    return AlgebraSpec(((d, 1),), 0, basis_change)


def full_matrix_algebra(d: int, basis_change=None) -> AlgebraSpec:
    """All of M_d."""
    return AlgebraSpec(((1, d),), 0, basis_change)


def canonical_basis(alg: AlgebraSpec) -> list[CMatrix]:
    """The sum_i n_i^2 matrices U^dag (1_{m_i} (x) E_st) U, block by block,
    E_st in row-major order; a linear basis of the algebra."""
    u, d, out = alg.basis_change, alg.dim, []
    for (m, n), off in zip(alg.blocks, alg.block_offsets()):
        g = u[off : off + m * n].reshape(m, n, d)
        # element (s, t) is sum_a |row(a,s)><row(a,t)| in U coordinates
        out.extend(freeze(b) for b in np.einsum("asx,aty->stxy", g.conj(), g).reshape(-1, d, d))
    return out


def _block_sums(x: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """sum_a x[(a, s), (a, t), ...] over the blocks at pos, indexed [j, s, t, ...],
    for x in block coordinates: U X U^dag, or S' as (d, d, d, d). Divided by
    m it is the projection's block: P'x[(a, s), (a, t), ...] for every a < m.
    """
    return x[pos[..., None], pos[..., None, :]].sum(axis=1)


def _block_average(alg: AlgebraSpec, x: np.ndarray) -> np.ndarray:
    """P'x for x as in _block_sums: each diagonal block averaged over its
    multiplicity, everything else dropped."""
    out = np.zeros(x.shape, dtype=np.complex128)
    for m, _, pos in alg._shape_groups:
        out[pos[..., None], pos[..., None, :]] = _block_sums(x, pos)[:, None] / m
    return out


def project_onto_algebra(alg: AlgebraSpec, x) -> CMatrix:
    """Hilbert-Schmidt orthogonal projection of a matrix onto the algebra,
    U^dag P'(U x U^dag) U with P' as in _block_average."""
    x = as_cmatrix(x)
    d = alg.dim
    if x.shape != (d, d):
        raise DimensionMismatch(f"expected {d}x{d}, got {x.shape}")
    u = alg.basis_change
    return u.conj().T @ _block_average(alg, u @ x @ u.conj().T) @ u


def projection_superoperator(alg: AlgebraSpec) -> CMatrix:
    """Matrix of :func:`project_onto_algebra` on row-major vectorized input.

    Column (k, l) projects the matrix unit E_kl, and the rotated units
    U E_kl U^dag are the columns of UU = U (x) conj(U): the matrix is UU^dag P'(UU).
    """
    d = alg.dim
    uu = np.kron(alg.basis_change, alg.basis_change.conj())
    return uu.conj().T @ _block_average(alg, uu.reshape(d, d, d, d)).reshape(d * d, d * d)


@dataclass(frozen=True, eq=False)
class TraceVectorReport:
    """Outcome of a trace-vector check.

    max_violation is the worst |<v|a|v> - trace(rho0 a)| over the canonical
    basis; the check passes when it stays within atol.
    """

    max_violation: float
    passed: bool


def _state_in_algebra(alg: AlgebraSpec, rho0, tol: ToleranceConfig) -> DensityOperator:
    """rho0 as a state on the algebra's space that is also one of its
    elements; raises Rho0NotInAlgebra otherwise."""
    state = _as_density(rho0, tol, alg.dim)
    if max_abs_diff(state.mat, project_onto_algebra(alg, state.mat)) > tol.atol:
        raise Rho0NotInAlgebra("state is not an element of the algebra within atol")
    return state


def is_trace_vector(v, alg: AlgebraSpec, rho0, tol: ToleranceConfig = DEFAULT_TOL) -> TraceVectorReport:
    """Check <v|a|v> = trace(rho0 a) over the canonical basis of the algebra.

    The violation is the worst entry of V^dag V - W^T over all blocks.
    v, flattened, is admitted as PQCInstance admits a state, by
    linalg._unit_rows, so NotUnitVector is raised unless ||v|| = 1 within
    atol; rho0 = 1_n/n gives the plain trace-vector condition.
    """
    v = _unit_rows([v], "vector", alg.dim, tol)[0]  # v as the one row
    state = _as_density(rho0, tol, alg.dim)
    u = alg.basis_change
    w, rho_t = u @ v, (u @ state.mat @ u.conj().T).T
    violation = 0.0
    for _, _, pos in alg._shape_groups:
        gram = w[pos].conj().transpose(0, 2, 1) @ w[pos]
        violation = max(violation, float(np.abs(gram - _block_sums(rho_t, pos)).max()))
    return TraceVectorReport(violation, violation <= tol.atol)


def is_separating(v, alg: AlgebraSpec, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff a |v> = 0 forces a = 0 within the algebra: every block's V_j
    has rank n_j, counted by linalg._psd_kept on the eigenvalues of V_j^dag V_j
    (its squared singular values) at scale ||v||^2, the units in which
    trace_vector_wrt cuts W. The zero vector is not separating."""
    v = _numeric(v, "vector").reshape(-1)
    if v.size != alg.dim:
        raise DimensionMismatch(f"vector must have length {alg.dim}, got {v.size}")
    v = v / (np.abs(v).max() or 1.0)  # so that the squares below neither overflow nor underflow
    w, scale = alg.basis_change @ v, np.vdot(v, v).real
    svals = [(n, np.linalg.svd(w[pos], compute_uv=False)) for _, n, pos in alg._shape_groups]
    return all(s.shape[1] == n and _psd_kept(s**2, tol, scale).all() for n, s in svals)


def has_trace_vector(alg: AlgebraSpec) -> bool:
    """Unital algebras admit trace vectors exactly when every block has
    multiplicity at least its size."""
    if not alg.is_unital:
        raise NotUnitalAlgebra("trace-vector existence is decided for unital algebras only")
    return all(m >= n for m, n in alg.blocks)


def max_entangled_trace_vector(m: int, n: int) -> np.ndarray:
    """The vector (1/sqrt(n)) sum_{i<n} e_i (x) f_i on C^m (x) C^n, a trace
    vector of the single-block algebra 1_m (x) M_n when m >= n."""
    m, n = _size(m, "block sizes"), _size(n, "block sizes")
    if n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got ({m}, {n})")
    return np.eye(m, n, dtype=np.complex128).reshape(-1) / np.sqrt(n)


def trace_vector_onb(alg: AlgebraSpec) -> list[np.ndarray]:
    """An orthonormal basis of C^d made entirely of trace vectors of the
    algebra (with respect to 1_d/d).

    Exists iff has_trace_vector, which raises NotUnitalAlgebra for a
    non-unital algebra. Vector a < d is U^dag y_a with, on each block of
    shape (m, n) and row (r, l) at block coordinate pos(r, l),

        y_a[pos(r, l)] = (m d)^{-1/2} sum_{k<m} e^{2 pi i (r - l) k / m} w^{pos(k, l) a},

    w = e^{2 pi i / d}. These are the powers R^a y_0 of the seed y_0, which
    is sqrt(m/d) at rows (l, l) of every block, under the unitary R that is
    diagonal in the multiplicity Fourier basis with eigenvalue w^p at block
    coordinate p. On each block R is a unitary of the multiplicity factor
    times the phase w^l on the block factor, a unitary of the algebra, so it
    maps trace vectors to trace vectors; the seed has weight 1/d on each
    eigenvector of R, so <y_a|y_b> is the character sum
    sum_p w^{p (b - a)} / d = delta_ab.
    """
    if not has_trace_vector(alg):
        raise NoTraceVectors(f"some block has m < n: {alg.blocks}")
    d = alg.dim
    ys = np.zeros((d, d), dtype=np.complex128)  # [a, block coordinate]
    for m, n, pos in alg._shape_groups:
        # integer exponents reduced mod m and mod d, so exp only sees phases below 2 pi
        r_minus_l = np.subtract.outer(np.arange(m), np.arange(n))
        fourier = np.exp(2j * np.pi * ((r_minus_l[:, None] * np.arange(m)[:, None]) % m) / m)
        orbit = np.exp(2j * np.pi * ((pos * np.arange(d)[:, None, None, None]) % d) / d)
        ys[:, pos] = np.einsum("rkl,ajkl->ajrl", fourier, orbit) * np.sqrt(1 / (m * d))
    return list(ys @ alg.basis_change.conj())


def trace_vector_wrt(alg: AlgebraSpec, rho0, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Construct a unit vector v with <v|a|v> = trace(rho0 a) on the algebra.

    rho0 must itself lie in the algebra. Per block the condition pins the
    Gram matrix of the vector's (multiplicity x size) component matrix V to
    V^dag V = W^T, W the block sums of U rho0 U^dag. Where n_i <= m_i, the
    first n_i rows of V are the PSD square root of W^T, which does not
    depend on the eigenbasis a degenerate weight leaves to rounding, so v is
    continuous in U and rho0; where m_i < n_i they are the rank rows
    sqrt(lam_a) conj(eigenvector a). Ranks count eigenvalues above atol by
    linalg._psd_kept, as is_separating does, and cut the square root; a block
    weight of rank above m_i is infeasible, and so is rank 0 in every block.
    """
    if not alg.is_unital:
        raise NotUnitalAlgebra("trace vectors with respect to a state require a unital algebra")
    state = _state_in_algebra(alg, rho0, tol)
    u = alg.basis_change
    rho = u @ state.mat @ u.conj().T
    w = np.zeros(alg.dim, dtype=np.complex128)
    for m, n, pos in alg._shape_groups:
        weight = _block_sums(rho, pos)  # = m * (block weight of rho0), [j, s, t]
        lam, vecs = np.linalg.eigh((weight.transpose(0, 2, 1) + weight.conj()) / 2)
        lam, vecs = lam[:, ::-1], vecs[:, :, ::-1]
        kept = _psd_kept(lam, tol)
        rank = int(kept.sum(axis=1).max())
        if rank > m:
            raise Infeasible(f"a ({m}, {n}) block weight has rank {rank} above multiplicity {m}")
        # row a < rank of V is sqrt(lam_a) times the conjugate of eigenvector a
        rows = np.sqrt(np.where(kept, lam, 0.0))[..., None] * vecs.conj().transpose(0, 2, 1)
        if n <= m:
            w[pos[:, :n]] = vecs @ rows
        else:
            w[pos[:, :rank]] = rows[:, :rank]
    if not w.any():
        raise Infeasible(f"every block weight has rank 0 at the rank cutoff atol = {tol.atol:g}")
    v = u.conj().T @ w
    return v / np.linalg.norm(v)
