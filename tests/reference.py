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
reference_gathered_axioms is the block-coordinate axiom check that reads
the off-support maxima of S' L_b' from a gathered copy of S', against
which the library's reading of them from S' in place is required to give
the same report bit for bit.
compose, convex_mix, depolarizing and kraus_from_choi are rebuilt as the
Python lists of Kraus operators, one operator at a time, that the
library's single-array forms replace. reference_transfer and
reference_ket are the qubit transfer and the Bloch-to-ket map one Pauli
and one point at a time, against which the two contractions and the
vectorized map are required to agree bit for bit. reference_is_pqc is the
privacy check with one apply_matrix call per state, against which the
chunked check is required to give the same residuals bit for bit.
reference_apply_matrix is the channel action one Kraus operator at a time,
against which the cached-superoperator kernel is required to agree within
rounding.
reference_sample_row is the CLI's sample row one ket at a time, through
density_to_bloch, against which the batched rows are required to agree
byte for byte.
reference_max_entangled sets the maximally entangled seed one diagonal
entry at a time. reference_trace_vector_onb builds the orthonormal
trace-vector basis as the orbit of a seed under a d x d step unitary,
d - 1 products in turn, against which the library's closed form for every
vector is compared. reference_trace_violation and reference_is_separating
contract the whole stacked canonical basis, and reference_trace_vector_wrt
solves each block from its own (m, n, d) grid of U's rows, with the same
square root as the library, against which the per-block matrices of the
library are compared. D32_SHAPES are the d = 32 block shapes, every block
with m >= n, on which the constructions are checked at the largest
dimension the CLI accepts. reference_is_psd decides positivity from the
smallest eigenvalue alone, against which the library's is_psd is
required to give the same verdict at eigenvalues next to -atol, and
reference_choi_from_superoperator is the Choi matrix as a reshuffle of the
superoperator, against which the one-reshuffle Choi matrix is required to
agree bit for bit. reference_kraus_product is the product of a Kraus stack
with its conjugate in the (i, k), (j, l) layout, from which the
superoperator, the Choi matrix and the channel-equality verdict are
required to follow bit for bit. tensor, hs_inner, matrices_equal and vec are
assertion helpers that the library itself has no use for.
"""

import numpy as np

from pqclab.algebras import _block_sums, canonical_basis, projection_superoperator
from pqclab.bloch import PAULIS, PauliTransfer, density_to_bloch
from pqclab.channels import _kraus_product, choi, from_kraus, kraus_from_choi, superoperator
from pqclab.condexp import AxiomReport, PqcReport
from pqclab.errors import DimensionMismatch, Infeasible
from pqclab.io import matrix_to_json
from pqclab.linalg import DEFAULT_TOL, as_cmatrix, is_psd, max_abs_diff, partial_trace
from pqclab.rand import haar_unitary

D32_SHAPES = [((32, 1),), ((8, 2), (16, 1)), ((4, 4), (16, 1)), ((1, 1),) * 32]


def tensor(a, b):
    """Kronecker product of two matrices; output dimensions multiply."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def vec(m):
    """Row-major vectorization of a matrix."""
    return as_cmatrix(m).reshape(-1)


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


def reference_apply_matrix(ch, x):
    """sum_a K_a x K_a^dag, one product pair per Kraus operator."""
    return sum(k @ x @ k.conj().T for k in ch.kraus)


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


def reference_choi_from_superoperator(ch):
    """J[(k, i), (l, j)] = S[(i, j), (k, l)], reshuffled from the
    superoperator."""
    s = superoperator(ch).reshape(ch.dim_out, ch.dim_out, ch.dim_in, ch.dim_in)
    return s.transpose(2, 0, 3, 1).reshape(ch.dim_in * ch.dim_out, -1)


def reference_kraus_product(kraus, right=None):
    """T[(i, k), (j, l)] = sum_a K_a[i, k] conj(R_a[j, l]) for a (K, d_out,
    d_in) stack K and R, K itself or a slab K[:, lo:hi] of its rows, as one
    (d_out d_in) x (n_j d_in) product."""
    right = kraus if right is None else right
    return kraus.reshape(len(kraus), -1).T @ right.conj().reshape(len(kraus), -1)


def reference_is_psd(m, tol=DEFAULT_TOL):
    """Hermitian within atol and no eigenvalue of the Hermitian part below
    -atol, from eigvalsh alone."""
    m = as_cmatrix(m)
    if m.shape[0] != m.shape[1] or max_abs_diff(m, m.conj().T) > tol.atol:
        return False
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2)
    return bool(evals.min() >= -tol.atol) if evals.size else True


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
    basis = np.array(canonical_basis(alg))
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


def reference_gathered_axioms(ch, alg, tol=DEFAULT_TOL):
    """The block-coordinate AxiomReport with the maxima of S' L_b' off the
    support of L_b' P'S' taken over s[:, :, pos], a gathered d^4 copy of S'
    per shape group, indexed [x, y, j, a, s, l]."""
    d, u = alg.dim, alg.basis_change
    s = _kraus_product(u @ ch.kraus @ u.conj().T)
    fixes = bimodule = 0.0
    for m, n, pos in alg._shape_groups:
        pos_t = pos.transpose(0, 2, 1)
        j, r = np.arange(len(pos))[:, None, None], np.arange(n)
        x, y = pos[..., None], pos[..., None, :]
        fix = s[:, :, x, y].sum(axis=3)
        fix[x, y, j[..., None], r[:, None], r] -= 1.0
        fixes = max(fixes, float(np.abs(fix).max()))
        ps = _block_sums(s, pos) / m
        both = s[x[..., None], y[..., None], pos_t[:, None, :, None, :]]
        mixed = ps[j[..., None], r[:, None, None], r[:, None], pos_t[:, :, None, :]]
        worst = float(np.abs(both[:, :, :, None] - mixed[:, None, None]).max())
        lhs = np.abs(s[:, :, pos]).max(axis=(3, 5))
        lhs[x, y, j[..., None], r[:, None]] = 0.0
        rhs = np.abs(ps).max(axis=(2, 4))
        rhs[j, r[:, None], pos_t] = 0.0
        bimodule = max(bimodule, worst, float(lhs.max()), float(rhs.max()))
    trace_pres = float(np.max(np.abs(np.einsum("xxkl->kl", s) - np.eye(d))))
    passed = fixes <= tol.atol and bimodule <= tol.atol and trace_pres <= tol.atol
    return AxiomReport(fixes, bimodule, True, trace_pres, passed)


def reference_transfer(ch, tol=DEFAULT_TOL):
    """T_jk = trace(sigma_j ch(sigma_k))/2 and t_j = trace(sigma_j ch(1))/2,
    one apply_matrix per Pauli and one trace of a product per entry."""
    images = [ch.apply_matrix(s) for s in PAULIS]
    T = np.array([[np.trace(sj @ img) / 2 for img in images] for sj in PAULIS])
    one_img = ch.apply_matrix(np.eye(2))
    t = np.array([np.trace(sj @ one_img) / 2 for sj in PAULIS])
    return PauliTransfer(T, t, tol)


def reference_is_pqc(inst, tol=DEFAULT_TOL):
    """The residual ||E(phi phi*) - rho0|| of each state in turn, one
    outer product and one apply_matrix call per state."""
    residuals = []
    for s in inst.states:
        out = inst.channel.apply_matrix(np.outer(s, s.conj()))
        residuals.append(max_abs_diff(out, inst.rho0.mat))
    return PqcReport(all(r <= tol.atol for r in residuals), tuple(residuals))


def reference_ket(r):
    """Ket of one Bloch vector from its polar and azimuthal angles, with
    the norm of that vector alone."""
    r = np.asarray(r, dtype=float)
    theta = np.arccos(np.clip(r[2] / max(np.linalg.norm(r), 1e-300), -1.0, 1.0))
    phi = np.arctan2(r[1], r[0])
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def reference_sample_row(ket):
    """theta, Bloch vector and amplitudes of one sampled ket, the Bloch
    vector read from its density matrix and the amplitudes encoded alone."""
    r = density_to_bloch(np.outer(ket, ket.conj())).r
    return {
        "theta": float(np.arccos(np.clip(r[2], -1.0, 1.0))),
        "bloch": [float(x) + 0.0 for x in r],
        "amplitudes": matrix_to_json(ket),
    }


def reference_trace_violation(v, alg, rho0):
    """max_k |<v|b_k|v> - trace(rho0 b_k)| over the (num_basis, d, d) stack
    of the canonical basis."""
    basis = np.array(canonical_basis(alg))
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    lhs = np.einsum("kij,i,j->k", basis, v.conj(), v)
    rhs = np.einsum("kij,ji->k", basis, as_cmatrix(rho0))
    return float(np.max(np.abs(lhs - rhs)))


def reference_is_separating(v, alg, tol=DEFAULT_TOL):
    """Full column rank of the stacked images (basis element) |v>, with the
    cutoff atol * max(largest singular value, 1)."""
    basis = np.array(canonical_basis(alg))
    images = np.einsum("kij,j->ik", basis, np.asarray(v, dtype=np.complex128).reshape(-1))
    s = np.linalg.svd(images, compute_uv=False)
    cutoff = tol.atol * max(float(s[0]), 1.0)
    return int(np.sum(s > cutoff)) == alg.num_basis


def reference_trace_vector_wrt(alg, rho0, tol=DEFAULT_TOL):
    """trace_vector_wrt one block at a time on the block's rows of U, shaped
    (m, n, d): the block weight as a three-operand einsum, and the vector
    accumulated block by block; rho0 is taken to lie in the algebra."""
    rho0 = as_cmatrix(rho0)
    u, v = alg.basis_change, np.zeros(alg.dim, dtype=np.complex128)
    for (m, n), off in zip(alg.blocks, alg.block_offsets()):
        g = u[off : off + m * n].reshape(m, n, alg.dim)
        w = np.einsum("asx,xy,aty->st", g, rho0, g.conj())
        lam, vecs = np.linalg.eigh((w.T + w.conj()) / 2)
        order = np.argsort(lam)[::-1]
        lam, vecs = np.clip(lam[order], 0.0, None), vecs[:, order]
        rank = int(np.sum(lam > tol.atol))
        if rank > m:
            raise Infeasible(f"block weight rank {rank} above multiplicity {m}")
        if n <= m:
            # comp[s, a] = V[a, s], V the PSD square root of W^T in rows a < n
            comp = (vecs[:, :rank] * np.sqrt(lam[:rank])) @ vecs[:, :rank].conj().T
            comp, rows = comp.T, n
        else:
            comp, rows = np.sqrt(lam[:rank]) * vecs[:, :rank].conj(), rank
        v += np.einsum("sa,asx->x", comp, g[:rows].conj())
    if not v.any():
        raise Infeasible("every block weight has rank 0")
    return v / np.linalg.norm(v)


def reference_max_entangled(m, n):
    """(1/sqrt(n)) sum_{i<n} e_i (x) f_i, one entry per loop step."""
    v = np.zeros(m * n, dtype=np.complex128)
    for i in range(n):
        v[i * n + i] = 1.0
    return v / np.sqrt(n)


def reference_trace_vector_onb(alg):
    """The orthonormal trace-vector basis as an orbit: the seed with
    sqrt(m_i / d) on the diagonal of each block's (m_i, n_i) component
    matrix, stepped d - 1 times by the d x d unitary that is
    F_i diag(w^(idx + k n_i)) F_i^dag (x) diag(w^l) on block i, F_i the
    m_i x m_i Fourier matrix, idx the block's offset and w = e^{2 pi i / d}."""
    d = alg.dim
    omega = np.exp(2j * np.pi / d)
    v = np.zeros(d, dtype=np.complex128)
    step = np.zeros((d, d), dtype=np.complex128)
    for (m, n), off in zip(alg.blocks, alg.block_offsets()):
        sl = slice(off, off + m * n)
        for l in range(n):
            v[off + l * n + l] = np.sqrt(m / d)
        f = np.exp(2j * np.pi * np.outer(np.arange(m), np.arange(m)) / m) / np.sqrt(m)
        c = (f * (omega ** (off + np.arange(m) * n))) @ f.conj().T
        step[sl, sl] = np.kron(c, np.diag(omega ** np.arange(n)))
    udag, out = alg.basis_change.conj().T, []
    for _ in range(d):
        out.append(udag @ v)
        v = step @ v
    return out
