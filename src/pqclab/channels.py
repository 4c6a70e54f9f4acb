"""Quantum channels in Kraus form: validation, named constructions,
application, and representation conversions (Choi matrix, superoperator).

A channel is stored as one read-only (K, d_out, d_in) stack of its Kraus
operators with sum_a K_a^dag K_a = 1. Kraus stacks are not unique, so
channel equality always means Choi-matrix equality, never stack equality.
It is applied through its superoperator, formed on first use and kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    NotAProbabilityDistribution,
    NotTracePreserving,
    NotUnitary,
)
from .linalg import (
    DEFAULT_TOL,
    CMatrix,
    ToleranceConfig,
    _is_real,
    _numeric,
    _psd_kept,
    _size,
    as_cmatrix,
    freeze,
    is_psd,
    max_abs_diff,
)

__all__ = [
    "Channel",
    "DensityOperator",
    "from_kraus",
    "random_unitary",
    "depolarizing",
    "convex_mix",
    "apply",
    "choi",
    "kraus_from_choi",
    "superoperator",
    "compose",
    "is_unital",
    "channels_equal",
]

# bytes one slab of a superoperator, or one is_pqc chunk, holds beside its result
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A density matrix: Hermitian, PSD, unit trace (all within atol)."""

    mat: CMatrix
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        m = as_cmatrix(self.mat)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got {m.shape}")
        if not is_psd(m, self.tol):
            raise ValueError("density matrix must be Hermitian PSD within atol")
        if abs(np.trace(m) - 1.0) > self.tol.atol:
            raise ValueError(f"density matrix must have unit trace, got {np.trace(m)}")
        object.__setattr__(self, "mat", freeze(m))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map held as one read-only Kraus stack of shape (K, dim_out, dim_in).

    Construction checks the stack's shape, from which the dimensions are
    read, and its finiteness. :func:`from_kraus` and the constructors built
    on it also enforce trace preservation; use them outside this package.
    """

    kraus: np.ndarray

    def __post_init__(self):
        ks = _numeric(self.kraus, "kraus")
        ks = ks if isinstance(self.kraus, (list, tuple)) else ks.copy()  # held only here
        if ks.ndim != 3 or ks.size == 0:
            raise DimensionMismatch(f"need a nonempty (K, d_out, d_in) stack, got shape {ks.shape}")
        ks.setflags(write=False)
        object.__setattr__(self, "kraus", ks)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    @cached_property
    def _superoperator(self) -> np.ndarray:
        """:func:`superoperator`, read-only and formed on the first application,
        so a channel that is only built, written out or checked holds none."""
        s = superoperator(self)
        s.setflags(write=False)
        return s

    def apply_matrix(self, x) -> np.ndarray:
        """Linear action sum_a K_a x K_a^dag on an arbitrary square matrix,
        or on each matrix of an (N, dim_in, dim_in) stack, giving an
        (N, dim_out, dim_out) stack.

        The action is one product per matrix with the channel's cached
        superoperator (:func:`_apply`), and a stack gives the same bits as
        one call per matrix. Besides its output a call allocates only the
        finiteness mask of x; the first call also forms the superoperator,
        dim_out^2 x dim_in^2 entries whatever the number of Kraus operators,
        which later calls reuse.
        """
        x = _numeric(x, "matrix")
        d = self.dim_in
        if x.ndim not in (2, 3) or x.shape[-2:] != (d, d):
            raise DimensionMismatch(
                f"channel expects {d}x{d} input or a stack of them, got {x.shape}"
            )
        return _apply(self, x)


def _apply(ch: Channel, x: np.ndarray) -> np.ndarray:
    """sum_a K_a x K_a^dag for a matrix x, or each of a stack, as the row
    vec(x)^T times S^T, S the cached superoperator; a stack runs that product
    once per matrix, bit-identical to one call each. Nothing is checked."""
    lead = x.shape[:-2]
    # explicit sizes: a -1 cannot be resolved for an empty (0, d_in, d_in) stack
    out = x.reshape(*lead, 1, ch.dim_in**2) @ ch._superoperator.T
    return out.reshape(*lead, ch.dim_out, ch.dim_out)


def from_kraus(kraus, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Validate a Kraus stack, a (K, d_out, d_in) array or a list of K
    equal-shape matrices, and wrap it as a Channel. Raises NotTracePreserving
    when sum K^dag K differs from the identity by more than atol, and
    DimensionMismatch on ragged or empty input.
    """
    ch = Channel(kraus)
    # sum_a K_a^dag K_a is one real product over the rows of all operators,
    # read through the float64 view (columns re_0, im_0, re_1, ...) so that
    # no conjugate copy of the stack is made: G[p, s, q, t] pairs part s of
    # column p with part t of column q
    d = ch.dim_in
    re_im = ch.kraus.reshape(-1, d).view(np.float64)
    g = (re_im.T @ re_im).reshape(d, 2, d, 2)
    gram = g[:, 0, :, 0] + g[:, 1, :, 1] + 1j * (g[:, 0, :, 1] - g[:, 1, :, 0])
    err = max_abs_diff(gram, np.eye(d))
    if not err <= tol.atol:  # so a NaN from overflowing entries fails too
        raise NotTracePreserving(f"sum K^dag K deviates from identity by {err:.3e}")
    return ch


def random_unitary(probs, unitaries, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Convex mixture of unitary conjugations, Kraus operators sqrt(p_i) U_i."""
    p = _numeric(probs, "probs", real=True)
    us = [as_cmatrix(u) for u in unitaries]
    if p.ndim != 1 or len(us) != p.size:
        raise DimensionMismatch(f"{p.size} probabilities vs {len(us)} unitaries")
    if p.size == 0 or np.any(p < -tol.atol) or abs(p.sum() - 1.0) > tol.atol:
        raise NotAProbabilityDistribution(f"weights {probs} are not a probability distribution")
    d = us[0].shape[0]
    for u in us:
        if u.shape != (d, d):
            raise DimensionMismatch(f"unitaries must share a square shape, got {u.shape}")
        if max_abs_diff(u.conj().T @ u, np.eye(d)) > tol.atol:
            raise NotUnitary("matrix fails U^dag U = 1 within atol")
    return from_kraus(np.sqrt(np.clip(p, 0.0, None))[:, None, None] * np.stack(us), tol)


def depolarizing(p: float, d: int) -> Channel:
    """Channel rho -> (p/d) trace(rho) 1_d + (1-p) rho on dimension d.

    p = 1 is the completely depolarizing channel sending everything to the
    maximally mixed state. Kraus realization: identity with weight
    1 - p + p/d^2 mixed with the d^2 - 1 non-identity shift-and-phase
    unitaries at weight p/d^2 each (the qubit case reduces to the familiar
    square-root-weighted Pauli conjugations).
    """
    if not _is_real(p) or not (0 < p <= 1):
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    d = _size(d, "dimensions", positive=True)
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)
    phase = np.diag(omega ** np.arange(d))
    xs = np.array([np.linalg.matrix_power(shift, a) for a in range(d)])
    zs = np.array([np.linalg.matrix_power(phase, b) for b in range(d)])
    w = np.full(d * d, p / d**2)
    w[0] = 1 - p + p / d**2
    return from_kraus(np.sqrt(w)[:, None, None] * (xs[:, None] @ zs).reshape(-1, d, d))


def convex_mix(weights, channels, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Probabilistic mixture of channels with matching dimensions."""
    w = _numeric(weights, "weights", real=True)
    chans = list(channels)
    if w.ndim != 1 or w.size != len(chans):
        raise DimensionMismatch(f"{w.size} weights vs {len(chans)} channels")
    if np.any(w < -tol.atol) or abs(w.sum() - 1.0) > tol.atol:
        raise NotAProbabilityDistribution(f"weights {weights} are not a probability distribution")
    if len({ch.kraus.shape[1:] for ch in chans}) != 1:
        raise DimensionMismatch("mixed channels must share input and output dimensions")
    ks = [np.sqrt(max(wi, 0.0)) * ch.kraus for wi, ch in zip(w, chans)]
    return from_kraus(np.concatenate(ks), tol)


def _as_density(rho, tol: ToleranceConfig) -> DensityOperator:
    """rho if it is a DensityOperator, else the raw matrix validated as one at tol."""
    return rho if isinstance(rho, DensityOperator) else DensityOperator(rho, tol)


def apply(ch: Channel, rho, tol: ToleranceConfig = DEFAULT_TOL) -> DensityOperator:
    """Apply the channel to a state, a DensityOperator or a raw matrix
    validated as one at tol; the output is validated as a state."""
    rho = _as_density(rho, tol)
    if rho.dim != ch.dim_in:
        raise DimensionMismatch(f"state dimension {rho.dim} vs channel input {ch.dim_in}")
    return DensityOperator(ch.apply_matrix(rho.mat), tol)


def choi(ch: Channel) -> CMatrix:
    """Choi matrix (id (x) ch) applied to the unnormalized maximally
    entangled matrix sum_kl E_kl (x) E_kl; PSD iff the map is CP."""
    # J[(k, i), (l, j)] = S[i, j, k, l]
    return _kraus_product(ch.kraus).transpose(2, 0, 3, 1).reshape(ch.dim_in * ch.dim_out, -1)


def kraus_from_choi(j, dim_in: int, dim_out: int, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Extract a minimal Kraus stack from a Choi matrix via eigendecomposition.

    j must be PSD by is_psd's rule, Hermitian within atol with no eigenvalue
    below -atol, or ValueError is raised, as DensityOperator does. The
    eigenvalues of its Hermitian part that linalg._psd_kept cuts, those at or
    below atol, are dropped; the result is re-validated through from_kraus,
    so an input that is not trace preserving raises NotTracePreserving.
    """
    dim_in, dim_out = (_size(n, "dim_in and dim_out", positive=True) for n in (dim_in, dim_out))
    j = as_cmatrix(j)
    if j.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimensionMismatch(f"Choi matrix shape {j.shape} vs dims ({dim_in}, {dim_out})")
    if not is_psd(j, tol):
        raise ValueError("Choi matrix must be Hermitian PSD within atol")
    evals, evecs = np.linalg.eigh(j / 2 + j.conj().T / 2)  # the Hermitian part is_psd tests
    keep = _psd_kept(evals, tol)
    if not keep.any():  # a CPTP map's Choi matrix has trace dim_in
        raise NotTracePreserving("no eigenvalue of the Choi matrix exceeds atol")
    # eigenvector v, indexed (k, i), gives the Kraus operator K[i, k] = sqrt(lam) v[(k, i)]
    ks = (np.sqrt(evals[keep]) * evecs[:, keep]).T.reshape(-1, dim_in, dim_out)
    return from_kraus(ks.transpose(0, 2, 1), tol)


def superoperator(ch: Channel) -> CMatrix:
    """Matrix of the channel action on row-major vectorized inputs:
    vec(ch(X)) = S vec(X), S[(i, j), (k, l)] = sum_a K_a[i, k] conj(K_a[j, l]).
    S is written in slabs of output index j, each one :func:`_kraus_product`
    of the stack with its slab, as many j as fit in ``_CHUNK_BYTES`` and at
    least one: no other d^4-sized array is held, and a small channel is one slab."""
    k, d_out, d_in = ch.kraus.shape
    s = np.empty((d_out, d_out, d_in, d_in), dtype=np.complex128)
    per_slab = max(1, _CHUNK_BYTES // (s.itemsize * d_in * (d_out * d_in + k)))
    for lo in range(0, d_out, per_slab):
        # one statement, so no slab outlives its write
        s[:, lo : lo + per_slab] = _kraus_product(ch.kraus, ch.kraus[:, lo : lo + per_slab])
    return s.reshape(d_out * d_out, d_in * d_in)


def _kraus_product(kraus: np.ndarray, right: np.ndarray | None = None) -> np.ndarray:
    """S[i, j, k, l] = sum_a K_a[i, k] conj(R_a[j, l]) of a (K, d_out, d_in)
    stack K and R, K (the default) or a slab K[:, lo:hi], as a (d_out, n_j,
    d_in, d_in) view of one product: the only code that forms this tensor."""
    k, d_out, d_in = kraus.shape
    t = kraus.reshape(k, -1).T @ (kraus if right is None else right).conj().reshape(k, -1)
    return t.reshape(d_out, d_in, -1, d_in).transpose(0, 2, 1, 3)


def compose(a: Channel, b: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Channel running ``a`` first and ``b`` second."""
    if a.dim_out != b.dim_in:
        raise DimensionMismatch(f"cannot chain {a.dim_out}-dim output into {b.dim_in}-dim input")
    # operator (p, q) is K^b_p K^a_q, with the b index outermost
    ks = b.kraus[:, None] @ a.kraus[None, :]
    return from_kraus(ks.reshape(-1, b.dim_out, a.dim_in), tol)


def is_unital(ch: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the channel fixes the maximally mixed state.

    E(1/d) = sum_a K_a K_a^dag / d is read from one product of the Kraus
    stack, without applying the channel.
    """
    if ch.dim_in != ch.dim_out:
        return False
    d = ch.dim_in
    # rows of K_a side by side: (d, K d) times its adjoint is sum_a K_a K_a^dag
    rows = ch.kraus.transpose(1, 0, 2).reshape(d, -1)
    return max_abs_diff(rows @ rows.conj().T / d, np.eye(d) / d) <= tol.atol


def channels_equal(a: Channel, b: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Choi-matrix equality within atol, read from the two Kraus products."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        return False
    return max_abs_diff(_kraus_product(a.kraus), _kraus_product(b.kraus)) <= tol.atol
