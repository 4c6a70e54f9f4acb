"""Reference constructions kept independent of the library's block grids.

The conditional expectation and the projection onto a block algebra are
rebuilt here the generic way (offset slicing, partial traces, an explicit
Choi matrix and its eigendecomposition), so tests can cross-check the
closed forms the library uses against them.
"""

import numpy as np

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
