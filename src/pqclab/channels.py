"""Quantum channels in Kraus form: validation, named constructions,
application, and representation conversions (Choi matrix, superoperator).

A channel is stored as its Kraus operators K_i with sum_i K_i^dag K_i = 1.
Kraus lists are not unique, so channel equality always means Choi-matrix
equality, never Kraus-list equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    """A CPTP map held as a tuple of Kraus operators (dim_out x dim_in each).

    Construct through :func:`from_kraus` (or the named constructors built on
    it), which enforce trace preservation; direct instantiation skips
    validation and is reserved for internal use.
    """

    kraus: tuple[CMatrix, ...]
    dim_in: int
    dim_out: int

    def __post_init__(self):
        object.__setattr__(self, "kraus", tuple(freeze(k) for k in self.kraus))

    def apply_matrix(self, x) -> CMatrix:
        """Linear action sum_i K_i x K_i^dag on an arbitrary square matrix."""
        x = as_cmatrix(x)
        if x.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatch(
                f"channel expects {self.dim_in}x{self.dim_in} input, got {x.shape}"
            )
        ks = np.stack(self.kraus)
        return np.einsum("aij,jk,alk->il", ks, x, ks.conj())


def from_kraus(kraus, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Validate a Kraus list and wrap it as a Channel.

    Raises NotTracePreserving when sum K^dag K differs from the identity by
    more than atol, DimensionMismatch on ragged or empty input.
    """
    ops = [as_cmatrix(k) for k in kraus]
    if not ops:
        raise DimensionMismatch("need at least one Kraus operator")
    dim_out, dim_in = ops[0].shape
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise DimensionMismatch(f"inconsistent Kraus shapes {k.shape} vs {(dim_out, dim_in)}")
    total = sum(k.conj().T @ k for k in ops)
    err = max_abs_diff(total, np.eye(dim_in))
    if err > tol.atol:
        raise NotTracePreserving(f"sum K^dag K deviates from identity by {err:.3e}")
    return Channel(kraus=tuple(ops), dim_in=dim_in, dim_out=dim_out)


def random_unitary(probs, unitaries, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Convex mixture of unitary conjugations, Kraus operators sqrt(p_i) U_i."""
    p = np.asarray(probs, dtype=float)
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
    ks = [np.sqrt(max(pi, 0.0)) * u for pi, u in zip(p, us)]
    return from_kraus(ks, tol)


def depolarizing(p: float, d: int) -> Channel:
    """Channel rho -> (p/d) trace(rho) 1_d + (1-p) rho on dimension d.

    p = 1 is the completely depolarizing channel sending everything to the
    maximally mixed state. Kraus realization: identity with weight
    1 - p + p/d^2 mixed with the d^2 - 1 non-identity shift-and-phase
    unitaries at weight p/d^2 each (the qubit case reduces to the familiar
    square-root-weighted Pauli conjugations).
    """
    if not (0 < p <= 1):
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)
    phase = np.diag(omega ** np.arange(d))
    ks = []
    for a in range(d):
        for b in range(d):
            w = 1 - p + p / d**2 if a == 0 and b == 0 else p / d**2
            ks.append(np.sqrt(w) * (np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(phase, b)))
    return from_kraus(ks)


def convex_mix(weights, channels, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Probabilistic mixture of channels with matching dimensions."""
    w = np.asarray(weights, dtype=float)
    chans = list(channels)
    if w.ndim != 1 or w.size != len(chans):
        raise DimensionMismatch(f"{w.size} weights vs {len(chans)} channels")
    if np.any(w < -tol.atol) or abs(w.sum() - 1.0) > tol.atol:
        raise NotAProbabilityDistribution(f"weights {weights} are not a probability distribution")
    ks = []
    for wi, ch in zip(w, chans):
        ks.extend(np.sqrt(max(wi, 0.0)) * k for k in ch.kraus)
    return from_kraus(ks, tol)


def apply(ch: Channel, rho: DensityOperator, tol: ToleranceConfig = DEFAULT_TOL) -> DensityOperator:
    """Apply the channel to a state; the output is validated as a state."""
    if rho.dim != ch.dim_in:
        raise DimensionMismatch(f"state dimension {rho.dim} vs channel input {ch.dim_in}")
    return DensityOperator(ch.apply_matrix(rho.mat), tol)


def choi(ch: Channel) -> CMatrix:
    """Choi matrix (id (x) ch) applied to the unnormalized maximally
    entangled matrix sum_kl E_kl (x) E_kl; PSD iff the map is CP."""
    # row a of w is sum_k |k> (x) K_a|k> in row-major coordinates
    w = np.stack(ch.kraus).transpose(0, 2, 1).reshape(len(ch.kraus), -1)
    return w.T @ w.conj()


def kraus_from_choi(j, dim_in: int, dim_out: int, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Extract a minimal Kraus list from a Choi matrix via eigendecomposition.

    Eigenvalues below atol are dropped; the result is re-validated through
    from_kraus, so a non-CP or non-TP input fails loudly.
    """
    j = as_cmatrix(j)
    if j.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimensionMismatch(f"Choi matrix shape {j.shape} vs dims ({dim_in}, {dim_out})")
    evals, evecs = np.linalg.eigh((j + j.conj().T) / 2)
    ks = []
    for lam, v in zip(evals, evecs.T):
        if lam > tol.atol:
            ks.append(np.sqrt(lam) * v.reshape(dim_in, dim_out).T)
    return from_kraus(ks, tol)


def superoperator(ch: Channel) -> CMatrix:
    """Matrix of the channel action on row-major vectorized inputs:
    vec(ch(X)) = S vec(X)."""
    d_in, d_out = ch.dim_in, ch.dim_out
    # sum_a K_a (x) conj(K_a): entry ((i, j), (k, l)) is sum_a K_a[i, k] conj(K_a[j, l])
    ks = np.stack(ch.kraus).reshape(len(ch.kraus), -1)
    s = (ks.T @ ks.conj()).reshape(d_out, d_in, d_out, d_in)
    return s.transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)


def compose(a: Channel, b: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Channel running ``a`` first and ``b`` second."""
    if a.dim_out != b.dim_in:
        raise DimensionMismatch(f"cannot chain {a.dim_out}-dim output into {b.dim_in}-dim input")
    ks = [kb @ ka for kb in b.kraus for ka in a.kraus]
    return from_kraus(ks, tol)


def is_unital(ch: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the channel fixes the maximally mixed state."""
    if ch.dim_in != ch.dim_out:
        return False
    d = ch.dim_in
    return max_abs_diff(ch.apply_matrix(np.eye(d) / d), np.eye(d) / d) <= tol.atol


def channels_equal(a: Channel, b: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Choi-matrix equality within atol."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        return False
    return max_abs_diff(choi(a), choi(b)) <= tol.atol
