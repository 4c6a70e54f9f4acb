"""Reference constructions kept independent of the library's block grids
and single-product formulas.

The conditional expectation and the projection onto a block algebra are
rebuilt here the generic way (offset slicing, partial traces, an explicit
Choi matrix and its eigendecomposition), and the superoperator, Choi and
projection matrices and the bimodule violation are built by the plain
loops over Kraus operators, basis elements and basis pairs, so tests can
cross-check the closed forms and products the library uses against them.
reference_axioms is the axiom check in computational coordinates with
batched small products and positivity from the full Choi matrix.
compose, convex_mix, depolarizing and kraus_from_choi are rebuilt as the
Python lists of Kraus operators, one operator at a time, that the
library's single-array forms replace. tensor, hs_inner and matrices_equal
are assertion helpers that the library itself has no use for.
"""

import numpy as np

from pqclab.algebras import canonical_basis, projection_superoperator
from pqclab.channels import choi, from_kraus, kraus_from_choi, superoperator
from pqclab.condexp import AxiomReport
from pqclab.errors import DimensionMismatch
from pqclab.linalg import DEFAULT_TOL, as_cmatrix, is_psd, max_abs_diff, partial_trace, vec
from pqclab.rand import haar_unitary


def tensor(a, b):
    """Kronecker product of two matrices; output dimensions multiply."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product trace(a^dag b)."""
    a, b = as_cmatrix(a), as_cmatrix(b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def matrices_equal(a, b, tol=DEFAULT_TOL) -> bool:
    return max_abs_diff(a, b) <= tol.atol


def isometry_channel(d_in, d_out, count, rng):
    """Kraus operators cut from the first d_in columns of a Haar unitary."""
    v = haar_unitary(count * d_out, rng)[:, :d_in]
    return from_kraus(v.reshape(count, d_out, d_in))


def reference_compose(a, b):
    """K^b_p K^a_q for every pair, p outermost, one product per pair."""
    return from_kraus([kb @ ka for kb in b.kraus for ka in a.kraus])


def reference_convex_mix(weights, channels):
    """sqrt(w_c) K^c_a, channel by channel, operator by operator."""
    ks = []
    for w, ch in zip(weights, channels):
        ks.extend(np.sqrt(max(w, 0.0)) * k for k in ch.kraus)
    return from_kraus(ks)


def reference_depolarizing(p, d):
    """sqrt(w_ab) X^a Z^b for every (a, b), a outermost, one product each."""
    omega = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0)
    phase = np.diag(omega ** np.arange(d))
    ks = []
    for a in range(d):
        for b in range(d):
            w = 1 - p + p / d**2 if a == 0 and b == 0 else p / d**2
            x_a, z_b = np.linalg.matrix_power(shift, a), np.linalg.matrix_power(phase, b)
            ks.append(np.sqrt(w) * (x_a @ z_b))
    return from_kraus(ks)


def reference_kraus_from_choi(j, dim_in, dim_out, tol=DEFAULT_TOL):
    """sqrt(lam) times each eigenvector above atol, reshaped and transposed
    one at a time, in ascending eigenvalue order."""
    evals, evecs = np.linalg.eigh((j + j.conj().T) / 2)
    ks = []
    for lam, v in zip(evals, evecs.T):
        if lam > tol.atol:
            ks.append(np.sqrt(lam) * v.reshape(dim_in, dim_out).T)
    return from_kraus(ks, tol)


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


def reference_axioms(ch, alg, tol=DEFAULT_TOL):
    """The AxiomReport of ch against alg: the one-sided module checks as
    n^2 small products per basis element against the full P S, positivity
    from the eigenvalues of the d^2 x d^2 Choi matrix."""
    n = alg.dim
    s = superoperator(ch)
    basis = alg._basis_stack
    flat = basis.reshape(alg.num_basis, -1)
    fixes = float(np.max(np.abs(flat @ s.T - flat)))

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
    passed = fixes <= tol.atol and bimodule <= tol.atol and positive and trace_pres <= tol.atol
    return AxiomReport(fixes, bimodule, positive, trace_pres, passed)
