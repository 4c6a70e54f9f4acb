"""Bloch-sphere representation of qubit states and channels.

A qubit state rho corresponds to the real 3-vector r with
rho = (1 + r . sigma)/2, pure states sitting on the unit sphere. A qubit
channel acts affinely on r as r -> T r + t; the kernel of T determines
which pure states the channel sends to the maximally mixed state, and
``classify`` names that set.

``transfer`` reads (T, t) from the channel: the images of the basis
(1, sigma_x, sigma_y, sigma_z) come from one call of ``channels._apply``,
the kernel behind ``Channel.apply_matrix``, on the stack of the four and on
the channel's cached superoperator, without apply_matrix's input checks.
One contraction with the basis gives (T, t), and ``classify`` reads both
the kernel of T and unitality from it, so it never calls
``Channel.apply_matrix``. Unit Bloch vectors become kets in one
vectorized map, of which ``bloch_to_ket`` is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, DensityOperator, _apply, _as_density
from .errors import BlochVectorTooLong, DimensionMismatch, NotUnital
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _is_unit,
    _numeric,
    _row_norms,
    _size,
    freeze,
    nullspace_basis,
)

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "PAULIS",
    "BlochVector",
    "PauliTransfer",
    "PrivateStateSet",
    "Empty",
    "AntipodalPair",
    "GreatCircle",
    "AllStates",
    "density_to_bloch",
    "bloch_to_density",
    "bloch_to_ket",
    "transfer",
    "classify",
    "sample_private_states",
]

SIGMA_X = freeze(np.array([[0, 1], [1, 0]], dtype=np.complex128))
SIGMA_Y = freeze(np.array([[0, -1j], [1j, 0]], dtype=np.complex128))
SIGMA_Z = freeze(np.array([[1, 0], [0, -1]], dtype=np.complex128))
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
# sigma_0 = 1 first, so the transfer's column 0 is t and columns 1..3 are T
_PAULI_STACK = freeze(np.stack([np.eye(2, dtype=np.complex128), *PAULIS]))


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Finite real 3-vector r; represents a state when ||r|| <= 1."""

    r: np.ndarray

    def __post_init__(self):
        r = _numeric(self.r, "Bloch vector", real=True)
        if r.shape != (3,):
            raise DimensionMismatch(f"Bloch vector must have 3 components, got {r.shape}")
        object.__setattr__(self, "r", freeze(r))

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.r))


@dataclass(frozen=True, eq=False)
class PauliTransfer:
    """Affine representation (T, t) of a qubit map: r -> T r + t.

    Both parts must be real within atol, which holds exactly when the map
    preserves Hermiticity; the imaginary parts are checked then dropped.
    """

    T: np.ndarray
    t: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)

    def __post_init__(self):
        T, t = _numeric(self.T, "T"), _numeric(self.t, "t")
        if T.shape != (3, 3) or t.shape != (3,):
            raise DimensionMismatch(f"expected 3x3 T and 3-vector t, got {T.shape}, {t.shape}")
        if np.abs(T.imag).max() > self.tol.atol or np.abs(t.imag).max() > self.tol.atol:
            raise ValueError("transfer parts have imaginary residue beyond atol")
        object.__setattr__(self, "T", freeze(T.real))
        object.__setattr__(self, "t", freeze(t.real))


class PrivateStateSet:
    """Base of the four-way tagged union returned by :func:`classify`."""

    tag: str = ""
    nullity: int = -1


@dataclass(frozen=True, eq=False)
class Empty(PrivateStateSet):
    tag = "Empty"
    nullity = 0


@dataclass(frozen=True, eq=False)
class AntipodalPair(PrivateStateSet):
    """Exactly two private pure states: unit qubit kets, orthogonal to each
    other, both within atol."""

    states: tuple[np.ndarray, np.ndarray]
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)
    tag = "AntipodalPair"
    nullity = 1

    def __post_init__(self):
        pair = _numeric(self.states, "antipodal states")
        if pair.shape != (2, 2):
            raise DimensionMismatch("antipodal states must be two qubit kets")
        if not _is_unit(_row_norms(pair), self.tol).all():
            raise ValueError("antipodal states must have unit norm within atol")
        if not (abs(np.vdot(*pair)) <= self.tol.atol):
            raise ValueError("antipodal states must be orthogonal within atol")
        object.__setattr__(self, "states", tuple(freeze(pair)))


@dataclass(frozen=True, eq=False)
class GreatCircle(PrivateStateSet):
    """Private states fill the great circle of the plane with this normal."""

    normal: np.ndarray
    tol: ToleranceConfig = field(default=DEFAULT_TOL, compare=False)
    tag = "GreatCircle"
    nullity = 2

    def __post_init__(self):
        n = _numeric(self.normal, "normal", real=True)
        if n.shape != (3,):
            raise DimensionMismatch("normal must be a real 3-vector")
        if not _is_unit(_row_norms(n[None]), self.tol).all():
            raise ValueError("normal must be a unit vector within atol")
        object.__setattr__(self, "normal", freeze(n))


@dataclass(frozen=True, eq=False)
class AllStates(PrivateStateSet):
    tag = "AllStates"
    nullity = 3


def density_to_bloch(rho, tol: ToleranceConfig = DEFAULT_TOL) -> BlochVector:
    """Bloch vector r_k = trace(rho sigma_k) of a qubit state, a
    DensityOperator or a raw 2x2 matrix validated as one at tol, so r lies in
    the Bloch ball; DimensionMismatch for another dimension."""
    m = _as_density(rho, tol, 2).mat
    return BlochVector(np.array([np.trace(m @ s).real for s in PAULIS]))


def bloch_to_density(r, tol: ToleranceConfig = DEFAULT_TOL) -> DensityOperator:
    """State (1 + r . sigma)/2 of a Bloch vector with ||r|| <= 1."""
    rv = (r if isinstance(r, BlochVector) else BlochVector(r)).r
    norm = np.linalg.norm(rv)
    if norm > 1.0 + tol.atol:
        raise BlochVectorTooLong(f"norm {norm} exceeds 1")
    m = (np.eye(2) + rv[0] * SIGMA_X + rv[1] * SIGMA_Y + rv[2] * SIGMA_Z) / 2
    return DensityOperator(m, tol)


def _kets(rs: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Kets of the rows of an (N, 3) array of unit Bloch vectors, one per
    row, phases fixed by a real first amplitude."""
    norms = _row_norms(rs)
    if not _is_unit(norms, tol).all():
        raise ValueError("Bloch vectors of pure states must have unit norm within atol")
    theta = np.arccos(np.clip(rs[:, 2] / norms, -1.0, 1.0))
    phi = np.arctan2(rs[:, 1], rs[:, 0])
    return np.column_stack([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def bloch_to_ket(r, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Pure-state ket for a unit Bloch vector, phase fixed by a real first
    amplitude. Raises ValueError unless ||r|| = 1 within atol."""
    rv = (r if isinstance(r, BlochVector) else BlochVector(r)).r
    return _kets(rv[None], tol)[0]


def transfer(ch: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> PauliTransfer:
    """Affine (T, t) with T_jk = trace(sigma_j ch(sigma_k))/2 and
    t_j = trace(sigma_j ch(1))/2.

    Both come from one 4x4 matrix T4_jk = trace(s_j ch(s_k))/2 over
    s = (1, sigma_x, sigma_y, sigma_z): the images ch(s_k) are the
    apply_matrix kernel (one product with the cached superoperator per s_k)
    on the stack of the four, the same bits as one apply_matrix call per s_k,
    and T4 is one contraction of them with the s_j, so T = T4[1:, 1:] and
    t = T4[1:, 0].
    """
    if ch.dim_in != 2 or ch.dim_out != 2:
        raise DimensionMismatch("transfer is defined for qubit channels only")
    images = _apply(ch, _PAULI_STACK)
    t4 = np.einsum("jab,kba->jk", _PAULI_STACK, images) / 2
    return PauliTransfer(t4[1:, 1:], t4[1:, 0], tol)


def _lex_sign(v: np.ndarray, atol: float) -> np.ndarray:
    """Flip sign so the first component larger than atol in modulus is
    positive; pins an orientation for directions defined up to sign."""
    for x in v:
        if abs(x) > atol:
            return v + 0.0 if x > 0 else -v + 0.0  # +0.0 clears negative zeros
    return v + 0.0


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b of two real 3-vectors: the component formula of np.cross,
    without its broadcasting set-up."""
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def classify(ch: Channel, tol: ToleranceConfig = DEFAULT_TOL) -> PrivateStateSet:
    """Name the set of pure states the channel maps to the maximally mixed
    state: nothing, an orthogonal pair, a great circle, or everything.

    Only unital qubit channels are classified; the kernel of T decides.
    Unitality is read from t: E(1/2) - 1/2 = (t . sigma)/2, so is_unital's
    largest entry is max(|t_z|, |t_x + i t_y|)/2.
    """
    pt = transfer(ch, tol)
    if max(abs(pt.t[2]), np.hypot(pt.t[0], pt.t[1])) / 2 > tol.atol:
        raise NotUnital("classification requires a unital channel")
    null = nullspace_basis(pt.T, tol)
    if len(null) == 0:
        return Empty()
    if len(null) == 1:
        v = _lex_sign(null[0] / np.linalg.norm(null[0]), tol.atol)
        return AntipodalPair(_kets(np.stack([v, -v]), tol), tol)
    if len(null) == 2:
        n = _cross(null[0], null[1])
        n = _lex_sign(n / np.linalg.norm(n), tol.atol)
        return GreatCircle(n, tol)
    return AllStates()


def _fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform covering of the unit sphere."""
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), z])


def _circle_points(normal: np.ndarray, count: int) -> np.ndarray:
    # in-plane frame seeded from the coordinate axis most orthogonal to the
    # normal, so axis-aligned circles sample axis-aligned points
    e = np.zeros(3)
    e[int(np.argmin(np.abs(normal)))] = 1.0
    u = e - (e @ normal) * normal
    u = u / np.linalg.norm(u)
    w = _cross(normal, u)
    theta = 2.0 * np.pi * np.arange(count) / count
    return np.outer(np.cos(theta), u) + np.outer(np.sin(theta), w)


def sample_private_states(s: PrivateStateSet, count: int) -> list[np.ndarray]:
    """Concrete pure states drawn from a classified set.

    Empty yields nothing and AntipodalPair yields its two states; the circle
    is sampled at equal angles and the full sphere by a Fibonacci covering,
    both deterministically, and all points become kets in one vectorized
    call.
    """
    count = _size(count, "sample counts", positive=True)
    if isinstance(s, Empty):
        return []
    if isinstance(s, AntipodalPair):
        return [np.array(st) for st in s.states]
    if isinstance(s, GreatCircle):
        return list(_kets(_circle_points(s.normal, count), s.tol))
    if isinstance(s, AllStates):
        return list(_kets(_fibonacci_sphere(count), DEFAULT_TOL))
    raise TypeError(f"not a PrivateStateSet: {s!r}")
