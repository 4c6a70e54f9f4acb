"""Dense complex linear algebra primitives shared by the whole package.

Matrices are plain ``numpy.ndarray`` objects in row-major order with dtype
``complex128`` (the ``CMatrix`` alias). All functions are pure and never
mutate their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch

# Universal numeric carrier: a dense 2-D complex array, row-major.
CMatrix = np.ndarray

__all__ = [
    "CMatrix",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "partial_trace",
    "nullspace_basis",
    "is_psd",
    "max_abs_diff",
]


def _is_real(x) -> bool:
    """True for a Python or numpy integer or float that is not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute tolerance driving every equality, PSD, and rank decision.

    Parameters
    ----------
    atol : float
        Absolute tolerance. Must be positive. Default 1e-9.
    """

    atol: float = 1e-9

    def __post_init__(self):
        if not _is_real(self.atol) or not 0 < self.atol < np.inf:
            raise ValueError(f"atol must be a positive and finite number, got {self.atol!r}")


DEFAULT_TOL = ToleranceConfig()


def _size(x, what: str) -> int:
    """x as an int, if it is a Python or numpy integer and not a bool."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{what} must be integers, got {x!r}")


def _row_norms(a) -> np.ndarray:
    """Euclidean norm of each row of a 2-D complex array, summed over its
    float64 view (re_0, im_0, re_1, ...), so a row gets the same bits in a
    stack as on its own. Both privacy routes, is_trace_vector and
    PQCInstance, measure unit norm with it and so admit the same vectors."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


def as_cmatrix(a) -> CMatrix:
    """Coerce to a 2-D complex128 array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def freeze(a: np.ndarray) -> np.ndarray:
    """Return a read-only copy; stored values are immutable by convention."""
    out = np.array(a, copy=True)
    out.setflags(write=False)
    return out


def partial_trace(x, dim_left: int, dim_right: int, side: str) -> CMatrix:
    """Trace out one tensor factor of a square matrix on C^l (x) C^r.

    Parameters
    ----------
    x : array_like
        Square matrix of size ``dim_left * dim_right``.
    dim_left, dim_right : int
        Dimensions of the two tensor factors.
    side : {"left", "right"}
        Which factor to trace out; the output lives on the other one.
    """
    x = as_cmatrix(x)
    d = dim_left * dim_right
    if x.shape != (d, d):
        raise DimensionMismatch(
            f"expected a {d}x{d} matrix for factors ({dim_left}, {dim_right}), got {x.shape}"
        )
    t = x.reshape(dim_left, dim_right, dim_left, dim_right)
    if side == "left":
        return np.einsum("akal->kl", t)
    if side == "right":
        return np.einsum("akbk->ab", t)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def nullspace_basis(m, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of the numerical nullspace of ``m``.

    Singular values below ``atol * max(s_max, 1)`` count as zero; the
    floor at 1 keeps the cutoff meaningful for near-zero matrices.
    Real input yields real basis vectors.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    if m.size == 0:
        return []
    _, s, vh = np.linalg.svd(m)
    cutoff = tol.atol * max(float(s[0]), 1.0)
    ncols = m.shape[1]
    rank = int(np.sum(s > cutoff))
    return [vh[i].conj() for i in range(rank, ncols)]


def is_hermitian(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    return max_abs_diff(m, m.conj().T) <= tol.atol


def is_psd(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff ``m`` is Hermitian within atol and the smallest ``eigvalsh``
    of its Hermitian part (m + m^dag)/2 is >= -atol; a 0 x 0 matrix is PSD."""
    m = as_cmatrix(m)  # the one conversion and finiteness scan
    if m.shape[0] != m.shape[1]:
        return False
    adj = m.conj().T
    if max_abs_diff(m, adj) > tol.atol:
        return False
    evals = np.linalg.eigvalsh((m + adj) / 2)
    return bool(evals.min() >= -tol.atol) if evals.size else True


def max_abs_diff(a, b) -> float:
    """Entrywise max-modulus difference, the package's matrix distance."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
