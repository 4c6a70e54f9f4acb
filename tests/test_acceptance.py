"""End-to-end acceptance suite.

Each test covers one numbered criterion, prints a PASS/FAIL line, and
records the verdict for the terminal summary emitted by conftest.py.
Tolerances are pinned here on purpose; loosening them is a contract
change, not a test fix.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np

import golden_cases
from pqclab.algebras import (
    AlgebraSpec,
    diagonal_algebra,
    is_separating,
    is_trace_vector,
    scalar_algebra,
    trace_vector_onb,
    trace_vector_wrt,
)
from pqclab.bloch import classify
from pqclab.channels import (
    DensityOperator,
    choi,
    compose,
    channels_equal,
    convex_mix,
    depolarizing,
    from_kraus,
    random_unitary,
)
from pqclab.cli import main as cli_main
from pqclab.condexp import (
    PQCInstance,
    collective_noise_channel_n2,
    condexp_channel,
    is_pqc,
    verify_condexp_axioms,
)
from pqclab.linalg import max_abs_diff
from pqclab.rand import random_ru_channel, random_unit_vector

from conftest import MASTER_SEED
from reference import hs_inner

RESULTS: dict[int, tuple[str, bool]] = {}

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


@contextmanager
def _criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        RESULTS[num] = (desc, False)
        print(f"FAIL criterion {num}: {desc}")
        raise
    else:
        RESULTS[num] = (desc, True)
        print(f"PASS criterion {num}: {desc}")


# --- criterion 1 helpers: a brute-force sweep fully independent of classify


def _grid_kets(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-uniform Bloch points and their kets, built from scratch."""
    i = np.arange(count)
    z = 1.0 - 2.0 * (i + 0.5) / count
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    s = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    points = np.column_stack([s * np.cos(phi), s * np.sin(phi), z])
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    kets = np.column_stack(
        [np.cos(theta / 2), np.exp(1j * np.arctan2(points[:, 1], points[:, 0])) * np.sin(theta / 2)]
    )
    return points, kets


def _batch_residuals(ch, kets: np.ndarray) -> np.ndarray:
    """max-modulus distance of ch(|psi><psi|) from 1/2 for a batch of kets."""
    ks = np.stack(ch.kraus)
    w = np.einsum("aij,nj->nai", ks, kets)
    outs = np.einsum("nai,nal->nil", w, w.conj())
    return np.max(np.abs(outs - np.eye(2) / 2), axis=(1, 2))


def _independent_nullity(ch) -> int:
    """Nullity of the Bloch-sphere linear action, reconstructed by probing
    the channel on four states; no transfer-matrix code involved."""

    def bloch_of(m):
        return np.array([np.trace(m @ s).real for s in (SX, SY, SZ)])

    base = bloch_of(ch.apply_matrix(np.eye(2) / 2))
    cols = []
    for e in np.eye(3):
        rho = (np.eye(2) + e[0] * SX + e[1] * SY + e[2] * SZ) / 2
        cols.append(bloch_of(ch.apply_matrix(rho)) - base)
    t = np.column_stack(cols)
    return 3 - np.linalg.matrix_rank(t, tol=1e-6)


def _channel_suite():
    rng = np.random.default_rng(MASTER_SEED + 10)
    paulis = [np.eye(2), SX, SY, SZ]

    def shrink_z(p):
        return random_unitary([(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4], paulis)

    suite = [
        from_kraus([np.eye(2)]),
        depolarizing(1.0, 2),
        condexp_channel(diagonal_algebra(2)),
        shrink_z(0.25),
        shrink_z(0.5),
        random_unitary([0.5, 0.0, 0.25, 0.25], paulis),
    ]
    suite.extend(random_ru_channel(2, k, rng) for k in (2, 3, 4, 2, 3, 4))
    return suite


def test_criterion_1_classification_vs_brute_force():
    desc = "classification of 12 channels agrees with a 10^4-state sweep at 1e-6 in under 5 s"
    with _criterion(1, desc):
        start = time.perf_counter()
        points, kets = _grid_kets(10_000)
        tags_seen = set()
        for ch in _channel_suite():
            tag = classify(ch)
            tags_seen.add(tag.tag)
            residuals = _batch_residuals(ch, kets)
            positives = points[residuals <= 1e-6]

            # the classified set must be sound: its members really privatize
            if tag.tag == "AntipodalPair":
                reps = np.stack(tag.states)
            elif tag.tag == "GreatCircle":
                u = np.zeros(3)
                u[int(np.argmin(np.abs(tag.normal)))] = 1.0
                u = u - (u @ tag.normal) * tag.normal
                u /= np.linalg.norm(u)
                w = np.cross(tag.normal, u)
                angles = 2 * np.pi * np.arange(100) / 100
                circle = np.outer(np.cos(angles), u) + np.outer(np.sin(angles), w)
                theta = np.arccos(np.clip(circle[:, 2], -1, 1))
                reps = np.column_stack(
                    [
                        np.cos(theta / 2),
                        np.exp(1j * np.arctan2(circle[:, 1], circle[:, 0])) * np.sin(theta / 2),
                    ]
                )
            elif tag.tag == "AllStates":
                reps = kets[:: 97]
            else:
                reps = None
            if reps is not None:
                assert np.max(_batch_residuals(ch, reps)) <= 1e-6

            # and complete: nothing outside it survives the sweep
            if tag.tag == "Empty":
                assert positives.shape[0] == 0
            elif tag.tag == "AntipodalPair":
                axis = np.array(
                    [np.trace(np.outer(tag.states[0], tag.states[0].conj()) @ s).real for s in (SX, SY, SZ)]
                )
                if positives.shape[0]:
                    dist = np.minimum(
                        np.linalg.norm(positives - axis, axis=1),
                        np.linalg.norm(positives + axis, axis=1),
                    )
                    assert dist.max() <= 1e-3
            elif tag.tag == "GreatCircle":
                if positives.shape[0]:
                    assert np.max(np.abs(positives @ tag.normal)) <= 1e-3
            else:
                assert positives.shape[0] == points.shape[0]

            assert _independent_nullity(ch) == tag.nullity

        assert tags_seen >= {"Empty", "AntipodalPair", "GreatCircle", "AllStates"}
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"sweep took {elapsed:.2f} s"


def test_criterion_2_trace_vector_pqc_equivalence(tv_algebra_suite):
    desc = "trace-vector and private-state verdicts agree on 50 algebras x 100 vectors"
    with _criterion(2, desc):
        disagreements = 0
        for idx, alg in enumerate(tv_algebra_suite):
            ch = condexp_channel(alg)
            rho0 = DensityOperator(np.eye(alg.dim) / alg.dim)
            rng = np.random.default_rng(MASTER_SEED + 100 + idx)
            vectors = [random_unit_vector(alg.dim, rng) for _ in range(100)]
            vectors.extend(trace_vector_onb(alg)[:2])
            for v in vectors:
                report = is_trace_vector(v, alg, rho0)
                pqc = is_pqc(PQCInstance((v,), ch, rho0))
                if report.passed != pqc.verdict:
                    disagreements += 1
                # both metrics must stay clear of the 1e-9..1e-6 margin band
                for metric in (report.max_violation, max(pqc.residuals)):
                    assert not (1e-9 < metric < 1e-6), f"metric {metric} inside decision margin"
        assert disagreements == 0


def test_criterion_3_orthonormal_trace_vector_bases(tv_algebra_suite):
    desc = "trace-vector bases on 50 algebras are orthonormal at 1e-9 and separating"
    with _criterion(3, desc):
        for alg in tv_algebra_suite:
            onb = trace_vector_onb(alg)
            assert len(onb) == alg.dim
            stack = np.array(onb)
            gram = stack.conj() @ stack.T
            assert np.max(np.abs(gram - np.eye(alg.dim))) <= 1e-9
            rho0 = DensityOperator(np.eye(alg.dim) / alg.dim)
            for v in onb:
                assert is_trace_vector(v, alg, rho0).passed
                assert is_separating(v, alg)


def test_criterion_4_no_trace_vectors_on_thin_blocks(no_tv_algebra_suite):
    desc = "no random vector passes on 20 algebras with a multiplicity-deficient block"
    with _criterion(4, desc):
        for idx, alg in enumerate(no_tv_algebra_suite):
            assert any(m < n for m, n in alg.blocks)
            rho0 = DensityOperator(np.eye(alg.dim) / alg.dim)
            rng = np.random.default_rng(MASTER_SEED + 200 + idx)
            for _ in range(100):
                v = random_unit_vector(alg.dim, rng)
                assert not is_trace_vector(v, alg, rho0).passed
                assert not is_separating(v, alg)


def test_criterion_5_conditional_expectation_axioms(mixed_algebra_suite):
    desc = "axioms, idempotence, and self-adjointness hold at 1e-9 on named and random algebras"
    with _criterion(5, desc):
        named = [
            diagonal_algebra(2),
            scalar_algebra(2),
            scalar_algebra(3),
            scalar_algebra(4),
            AlgebraSpec(((2, 2),)),
        ]
        rng = np.random.default_rng(MASTER_SEED + 300)
        for alg in named + list(mixed_algebra_suite):
            ch = condexp_channel(alg)
            report = verify_condexp_axioms(ch, alg)
            assert report.passed
            assert report.fixes_subalgebra <= 1e-9
            assert report.bimodule <= 1e-9
            assert report.trace_preserving <= 1e-9
            assert max_abs_diff(choi(compose(ch, ch)), choi(ch)) <= 1e-9
            d = alg.dim
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            adj = abs(hs_inner(ch.apply_matrix(x), y) - hs_inner(x, ch.apply_matrix(y)))
            assert adj <= 1e-9


def test_criterion_6_depolarizing_interpolation():
    desc = "p-mix of diagonal and scalar expectations matches the z-shrinking channel at 1e-9"
    with _criterion(6, desc):
        e_delta = condexp_channel(diagonal_algebra(2))
        e_scalar = condexp_channel(scalar_algebra(2))
        paulis = [np.eye(2), SX, SY, SZ]
        for p in (0.25, 0.5, 1.0):
            mixed = convex_mix([p, 1 - p], [e_delta, e_scalar])
            direct = random_unitary(
                [(1 + p) / 4, (1 - p) / 4, (1 - p) / 4, (1 + p) / 4], paulis
            )
            assert max_abs_diff(choi(mixed), choi(direct)) <= 1e-9
            assert channels_equal(mixed, direct)


def test_criterion_7_equator_states():
    desc = "the 8 equator states pass and poles plus 20 off-equator states fail both checks"
    with _criterion(7, desc):
        alg = diagonal_algebra(2)
        ch = condexp_channel(alg)
        rho0 = DensityOperator(np.eye(2) / 2)

        def both(v):
            a = is_trace_vector(v, alg, rho0).passed
            b = is_pqc(PQCInstance((v,), ch, rho0)).verdict
            assert a == b
            return a

        s = 1 / np.sqrt(2)
        for k in range(8):
            v = np.array([s, s * np.exp(1j * k * np.pi / 4)])
            assert both(v)
        assert not both(np.array([1.0, 0.0]))
        assert not both(np.array([0.0, 1.0]))
        rng = np.random.default_rng(MASTER_SEED + 400)
        found = 0
        while found < 20:
            v = random_unit_vector(2, rng)
            if abs(abs(v[0]) ** 2 - 0.5) < 0.05:
                continue  # too close to the equator to be a clean negative
            assert not both(v)
            found += 1


def test_criterion_8_collective_noise_demo():
    desc = "two-qubit collective-noise demo: axioms pass, triplet weight 3/4, state is private"
    with _criterion(8, desc):
        ch, alg = collective_noise_channel_n2()
        report = verify_condexp_axioms(ch, alg)
        assert report.passed
        assert report.fixes_subalgebra <= 1e-9
        assert report.bimodule <= 1e-9
        assert report.trace_preserving <= 1e-9
        rho0 = DensityOperator(np.eye(4) / 4)
        v = trace_vector_wrt(alg, rho0)
        u = alg.basis_change
        triplet_proj = u.conj().T @ np.diag([1.0, 1.0, 1.0, 0.0]) @ u
        weight = float(np.real(v.conj() @ triplet_proj @ v))
        assert abs(weight - 0.75) <= 1e-9
        assert is_pqc(PQCInstance((v,), ch, rho0)).verdict


def test_criterion_9_cli_goldens():
    desc = "CLI output is byte-identical across runs and matches the checked-in goldens"
    with _criterion(9, desc):
        assert golden_cases.CASES, "golden case table must not be empty"
        for golden_name, argv in golden_cases.CASES:
            golden_path = golden_cases.GOLDEN_DIR / golden_name
            assert golden_path.is_file(), f"missing golden {golden_path}"
            expected = golden_path.read_text(encoding="utf-8")

            outputs = []
            for _ in range(2):
                buf = io.StringIO()
                with redirect_stdout(buf):
                    code = cli_main(list(argv))
                assert code == 0
                outputs.append(buf.getvalue())
            assert outputs[0] == outputs[1], f"non-deterministic output for {golden_name}"
            assert outputs[0] == expected, f"golden drift for {golden_name}"
            json.loads(outputs[0])  # goldens stay machine-readable
