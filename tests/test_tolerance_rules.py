"""The tolerance rules of linalg at their atol edge, and the agreement they
buy between the trace-vector constructor and the separating check.

There are three rules, each with one unit. A PSD matrix's rank counts the
eigenvalues above atol in the matrix's own units (``_psd_kept``), so
``kraus_from_choi`` and ``trace_vector_wrt`` cut at atol. ``is_separating``
cuts the block Gram V^dag V at atol ||v||^2. A linear map's rank counts the
singular values above atol * max(s_max, 1) (``_numerical_rank``, used by
``nullspace_basis``). A unit vector has |norm - 1| <= atol (``_is_unit``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqclab import (
    AlgebraSpec,
    AntipodalPair,
    GreatCircle,
    PQCInstance,
    choi,
    diagonal_algebra,
    from_kraus,
    is_separating,
    is_trace_vector,
    kraus_from_choi,
    nullspace_basis,
    random_unitary,
    trace_vector_wrt,
)
from pqclab.bloch import bloch_to_ket
from pqclab.errors import Infeasible, NotUnitVector
from pqclab.linalg import DEFAULT_TOL

ATOL = DEFAULT_TOL.atol
DELTA2 = diagonal_algebra(2)
SZ = np.diag([1.0, -1.0])


def _haar(n, rng):
    """Haar unitary by numpy alone, as bench/workloads.py draws it."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# (eps, the verdict for rho0 = diag(1 - eps, eps)): both the vector that
# trace_vector_wrt builds and the exact (sqrt(1 - eps), sqrt(eps)) read it
MOTIVATION = [(1e-8, True), (1.01 * ATOL, True), (0.99 * ATOL, False), (1e-10, False),
              (1e-12, False), (1e-17, False)]


@pytest.mark.parametrize("eps, separating", MOTIVATION)
def test_built_and_exact_trace_vectors_of_one_state_are_judged_alike(eps, separating):
    rho0 = np.diag([1 - eps, eps])
    built = trace_vector_wrt(DELTA2, rho0)
    exact = np.array([np.sqrt(1 - eps), np.sqrt(eps)])
    for v in (built, exact):
        assert is_trace_vector(v, DELTA2, rho0).passed
        assert is_separating(v, DELTA2) is separating
        for c in (1e-200, 1e-6, 1e6, 1e200):  # the cut atol ||v||^2 scales with v
            assert is_separating(c * v, DELTA2) is separating
    assert bool(built[1] != 0) is separating  # the constructor cut the same eigenvalue


def test_the_zero_vector_is_not_separating():
    assert not is_separating(np.zeros(2), DELTA2)
    assert not is_separating(np.zeros(4), AlgebraSpec(((2, 2),)))


@pytest.mark.parametrize("p, kept", [(1.01 * ATOL / 2, 2), (0.99 * ATOL / 2, 1), (0.0, 1)])
def test_kraus_from_choi_keeps_the_choi_eigenvalues_above_atol(p, kept):
    # the dephasing channel sqrt(1 - p) 1, sqrt(p) Z has Choi eigenvalues 2(1 - p) and 2p
    j = choi(random_unitary([1 - p, p], [np.eye(2), SZ]))
    assert len(kraus_from_choi(j, 2, 2).kraus) == kept


@pytest.mark.parametrize(
    "top, s, nullity",
    [
        (1.0, 1.01 * ATOL, 0),
        (1.0, 0.99 * ATOL, 1),
        (0.5, 1.01 * ATOL, 0),  # below s_max = 1 the cut is absolute
        (0.5, 0.99 * ATOL, 1),
        (10.0, 10.1 * ATOL, 0),  # above it the cut scales with s_max
        (10.0, 9.9 * ATOL, 1),
    ],
)
def test_nullspace_cuts_singular_values_at_atol_times_max_of_s_max_and_1(top, s, nullity):
    m = np.diag([top, s, top])
    assert len(nullspace_basis(m)) == nullity
    basis = nullspace_basis(np.diag([top, s, 0.0]))
    assert len(basis) == nullity + 1
    assert all(b.dtype == np.float64 for b in basis)  # real input, real vectors
    assert all(b.dtype == np.complex128 for b in nullspace_basis(np.diag([top, s, 0j])))


# name -> (the site fed a vector of norm n, the class it raises off the unit sphere)
UNIT_SITES = {
    "is_trace_vector": (lambda n: is_trace_vector([n, 0.0], DELTA2, np.eye(2) / 2), NotUnitVector),
    "PQCInstance": (lambda n: PQCInstance([[0.0, n]], from_kraus([np.eye(2)]), np.eye(2) / 2),
                    NotUnitVector),
    "bloch_to_ket": (lambda n: bloch_to_ket([0.0, 0.0, n]), ValueError),
    "AntipodalPair": (lambda n: AntipodalPair([[n, 0.0], [0.0, 1.0]]), ValueError),
    "GreatCircle": (lambda n: GreatCircle([0.0, n, 0.0]), ValueError),
}


@pytest.mark.parametrize("site", UNIT_SITES)
@pytest.mark.parametrize("delta", [0.99 * ATOL, -0.99 * ATOL, 1.01 * ATOL, -1.01 * ATOL])
def test_every_unit_norm_site_cuts_at_atol(site, delta):
    call, error = UNIT_SITES[site]
    if abs(delta) < ATOL:
        call(1.0 + delta)
    else:
        with pytest.raises(error, match="unit|norm"):
            call(1.0 + delta)


BLOCKS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
# log10 of each eigenvalue but the first, outside the band [atol/10, 10 atol]
LOGS = st.lists(st.floats(-20, -10) | st.floats(-8, 0), min_size=8, max_size=8)


class TestConstructorAndCheckAgree:
    @settings(max_examples=150, deadline=None)
    @given(BLOCKS, LOGS, st.integers(0, 2**32 - 1))
    @example([(1, 1), (1, 1)], [-12.0] + [0.0] * 7, 0)
    @example([(2, 2)], [-17.0] + [0.0] * 7, 1)
    @example([(1, 2), (2, 1)], [-7.5, -15.0] + [0.0] * 6, 2)
    def test_trace_vectors_are_separating_exactly_when_every_weight_eigenvalue_exceeds_atol(
        self, blocks, logs, seed
    ):
        rng = np.random.default_rng(seed)
        count = sum(n for _, n in blocks)
        # block-weight eigenvalues: all but the first at most 1/count, so the
        # first, 1 minus their sum, is at least 1/count and the trace is 1
        rest = [10 ** min(x, -np.log10(count)) for x in logs[: count - 1]]
        lams = np.array([1 - sum(rest), *rest])
        parts = np.split(lams, np.cumsum([n for _, n in blocks])[:-1])
        u = _haar(sum(m * n for m, n in blocks), rng)
        alg = AlgebraSpec(tuple(blocks), 0, u)
        # rho0 = U^dag (sum_i 1_m (x) W_i / m) U, W_i = Q_i diag(lam_i) Q_i^dag, and
        # the independent vector's blocks V_i = (m x r isometry) diag(sqrt lam_i) Q_i^T
        # over the r = min(m, n) largest lam_i, so V_i^dag V_i = W_i^T where m >= n
        rho, w = [], []
        for (m, n), lam in zip(blocks, parts):
            q, lam = _haar(n, rng), np.sort(lam)[::-1]
            weight = (q * lam) @ q.conj().T
            rho.append(np.kron(np.eye(m), weight / m))
            r = min(m, n)
            w.append((_haar(m, rng)[:, :r] * np.sqrt(lam[:r])) @ q[:, :r].T)
        rho0 = u.conj().T @ _block_diag(rho) @ u
        independent = u.conj().T @ np.concatenate([b.reshape(-1) for b in w])
        independent /= np.linalg.norm(independent)

        separating = bool((lams > ATOL).all())
        infeasible = any((lam > ATOL).sum() > m for (m, _), lam in zip(blocks, parts))
        if infeasible:
            with pytest.raises(Infeasible):
                trace_vector_wrt(alg, rho0)
            return
        built = trace_vector_wrt(alg, rho0)
        for v in (built, independent):
            assert is_trace_vector(v, alg, rho0).passed
            assert is_separating(v, alg) is separating


def _block_diag(mats):
    d = sum(len(a) for a in mats)
    out, off = np.zeros((d, d), dtype=np.complex128), 0
    for a in mats:
        out[off : off + len(a), off : off + len(a)] = a
        off += len(a)
    return out
