"""Dense complex linear algebra primitives shared by the whole package.

Matrices are plain ``numpy.ndarray`` objects in row-major order with dtype
``complex128`` (the ``CMatrix`` alias). All functions are pure and never
mutate their inputs, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotUnitVector

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


def _size(x, what: str, positive: bool = False) -> int:
    """x as an int if it is a Python or numpy integer, not a bool, and with positive >= 1."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
        raise ValueError(f"{what} must be integers, got {x!r}")
    if positive and x < 1:
        raise ValueError(f"{what} must be positive, got {x}")
    return int(x)


_PY_NUMBERS = frozenset((int, float, complex))


def _has_bool(x) -> bool:
    """Whether x is a bool or bool array, or nests one in lists and tuples. A
    sequence of Python numbers alone is cleared by one pass over its types."""
    if isinstance(x, np.ndarray):
        return x.dtype.kind == "b"
    if isinstance(x, (list, tuple)):
        return not _PY_NUMBERS.issuperset(map(type, x)) and any(map(_has_bool, x))
    return isinstance(x, (bool, np.bool_))


def _as_numbers(x, what: str, real: bool | None = False) -> np.ndarray:
    """x by one np.asarray and one cast to complex128, or float64 if real (or if
    real is None and x is not complex). Ragged x raises DimensionMismatch, and a
    dtype other than integer, float or (unless real) complex, such as str, bytes,
    bool or object, a bool among numbers (which np.asarray would promote), or a
    dtype the cast would round (wider than float64 or complex128), ValueError,
    naming what."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # numpy refuses nested sequences of unequal lengths
        raise DimensionMismatch(f"{what} must share one shape: {exc}") from exc
    if a.dtype.kind not in ("iuf" if real else "iufc"):
        raise ValueError(f"{what} must hold only {'real ' * bool(real)}numbers, got dtype {a.dtype}")
    if a is not x and _has_bool(x):  # an array's own dtype was read above
        raise ValueError(f"{what} must hold only {'real ' * bool(real)}numbers, got a bool")
    if a.itemsize > (16 if a.dtype.kind == "c" else 8):
        raise ValueError(f"{what} must fit float64 or complex128, got dtype {a.dtype}")
    real = real or (real is None and a.dtype.kind != "c")
    return a.astype(np.float64 if real else np.complex128, copy=False)


def _numeric(x, what: str, real: bool | None = False) -> np.ndarray:
    """The intake rule for every array a caller passes in: :func:`_as_numbers`,
    then ValueError naming what on NaN or Inf. The result may be x itself."""
    a = _as_numbers(x, what, real)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} contains NaN or Inf entries")
    return a


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D float64 or complex128 array; a row
    gets the same bits in a stack as alone. A float64 row is read as it is, by
    one stacked dot product per row, np.linalg.norm's sum for one vector; a
    complex row is summed over its float64 view (re_0, im_0, re_1, ...)."""
    if a.dtype == np.float64:
        return np.sqrt((a[:, None, :] @ a[:, :, None]).reshape(-1))
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))


def _is_unit(norms, tol: ToleranceConfig) -> np.ndarray:
    """The one unit-norm rule: |norm - 1| <= atol for each norm, in its own units; NaN fails."""
    return np.abs(norms - 1.0) <= tol.atol


def _psd_kept(evals, tol: ToleranceConfig, scale: float = 1.0) -> np.ndarray:
    """The one rank rule for a PSD matrix: its eigenvalues above atol * scale
    count. The cut is in the matrix's own units (a Choi matrix, a block weight
    W); scale ||v||^2 puts a block Gram V^dag V of any v in those of v/||v||."""
    return evals > tol.atol * scale


def _unit_rows(x, what: str, width: int, tol: ToleranceConfig) -> np.ndarray:
    """x as a complex (N >= 1, width) stack, a row per index of its first axis, each
    of unit :func:`_row_norms` norm by :func:`_is_unit` (NaN or Inf raise NotUnitVector):
    the one rule by which both privacy routes, is_trace_vector and PQCInstance, admit vectors."""
    rows = _as_numbers(x, what)
    if rows.ndim == 0 or len(rows) == 0:
        raise ValueError(f"{what} must not be empty")
    rows = rows.reshape(len(rows), -1)
    if rows.shape[1] != width:
        raise DimensionMismatch(f"{what} must have length {width}, got {rows.shape[1]}")
    norms = _row_norms(rows)
    unit = _is_unit(norms, tol)
    if not unit.all():
        raise NotUnitVector(f"{what} must have norm 1 within atol, got {norms[~unit][0]}")
    return rows


def as_cmatrix(a) -> CMatrix:
    """a as a 2-D complex128 array by :func:`_numeric`; the result may be a itself."""
    m = _numeric(a, "matrix")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
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
    dim_left, dim_right = (_size(n, "dimensions", positive=True) for n in (dim_left, dim_right))
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
    """Orthonormal basis of the numerical nullspace of ``m``, by the one rank
    rule for a linear map: singular values at or below atol * max(s_max, 1),
    relative above scale 1 and absolute below it, count as zero. Real input
    is kept real by the intake rule and yields real basis vectors."""
    m = _numeric(m, "matrix", real=None)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.size == 0:
        return []
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol.atol * max(float(s[0]), 1.0)))
    return [vh[i].conj() for i in range(rank, m.shape[1])]


def is_psd(m, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff ``m`` is Hermitian within atol and the smallest ``eigvalsh``
    of its Hermitian part m/2 + m^dag/2 is >= -atol; a 0 x 0 matrix is PSD."""
    m = as_cmatrix(m)  # the one conversion and finiteness scan
    if m.shape[0] != m.shape[1]:
        return False
    adj = m.conj().T
    if max_abs_diff(m, adj) > tol.atol:
        return False
    evals = np.linalg.eigvalsh(m / 2 + adj / 2)  # halved first, so finite for finite m
    return bool(evals.min() >= -tol.atol) if evals.size else True


def _is_unitary(u: np.ndarray, tol: ToleranceConfig) -> bool:
    """The one unitarity rule: U^dag U = 1 within atol for a square complex u.
    The product runs with numpy's floating-point warnings off, so entries too
    large for it give inf or NaN, which fail like a NaN entry, and warn nothing."""
    with np.errstate(all="ignore"):
        err = max_abs_diff(u.conj().T @ u, np.eye(len(u)))
    return err <= tol.atol


def max_abs_diff(a, b) -> float:
    """Entrywise max-modulus difference, the package's matrix distance (NaN on NaN)."""
    a, b = _as_numbers(a, "matrices"), _as_numbers(b, "matrices")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))
