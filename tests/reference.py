"""Reference constructions kept independent of the library's block grids
and single-product formulas.

The conditional expectation and the projection onto a block algebra are
rebuilt here the generic way (offset slicing, partial traces, an explicit
Choi matrix and its eigendecomposition), and the superoperator, Choi and
projection matrices and the bimodule violation are built by the plain
loops over Kraus operators, basis elements and basis pairs, so tests can
cross-check the closed forms and products the library uses against them.
"""

import numpy as np

from pqclab.algebras import canonical_basis
from pqclab.channels import kraus_from_choi
from pqclab.linalg import partial_trace, tensor


def reference_projection(alg, x):
    """U^dag (sum_i 1_{m_i} (x) partial_trace(block_i)/m_i) U, where block_i
    is the i-th diagonal block of U x U^dag."""
    u = alg.basis_change
    y = u @ x @ u.conj().T
    out = np.zeros_like(y)
    off = 0
    for m, n in alg.blocks:
        sl = slice(off, off + m * n)
        out[sl, sl] = tensor(np.eye(m), partial_trace(y[sl, sl], m, n, "left") / m)
        off += m * n
    return u.conj().T @ out @ u


def reference_condexp(alg):
    """The channel whose Choi matrix is the reference projection applied to
    every matrix unit, with its Kraus list read off by kraus_from_choi."""
    d = alg.dim
    j4 = np.zeros((d, d, d, d), dtype=np.complex128)
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[k, l] = 1.0
            j4[k, :, l, :] = reference_projection(alg, unit)
    return kraus_from_choi(j4.reshape(d * d, d * d), d, d)


def reference_superoperator(ch):
    """sum_a K_a (x) conj(K_a), one Kronecker product per Kraus operator."""
    s = np.zeros((ch.dim_out**2, ch.dim_in**2), dtype=np.complex128)
    for k in ch.kraus:
        s += np.kron(k, k.conj())
    return s


def reference_choi(ch):
    """sum_a w_a w_a^dag with w_a = sum_k |k> (x) K_a|k>, one outer product
    per Kraus operator."""
    j = np.zeros((ch.dim_in * ch.dim_out,) * 2, dtype=np.complex128)
    for k in ch.kraus:
        w = k.T.reshape(-1)
        j += np.outer(w, w.conj())
    return j


def reference_projection_superoperator(alg):
    """sum_k vec(b_k) vec(b_k)^dag / m_k over the canonical basis, one
    rank-one term per basis element."""
    d = alg.dim
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    basis = canonical_basis(alg)
    pos = 0
    for m, n in alg.blocks:
        for _ in range(n * n):
            w = basis[pos].reshape(-1)
            s += np.outer(w, w.conj()) / m
            pos += 1
    return s


def reference_bimodule(ch, alg):
    """max over basis pairs (b1, b2) of |S (b1 (x) b2^T) - (b1 (x) b2^T) P S|,
    the joint bimodule violation over all matrix units."""
    s = reference_superoperator(ch)
    ps = reference_projection_superoperator(alg) @ s
    worst = 0.0
    for b1 in canonical_basis(alg):
        for b2 in canonical_basis(alg):
            m = np.kron(b1, b2.T)
            worst = max(worst, float(np.max(np.abs(s @ m - m @ ps))))
    return worst
