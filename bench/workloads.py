"""The four benchmark workloads.

Each workload is built from a seed and yields one *round* of ops at a time.
``round()`` is a generator of ``(run, check)`` pairs: ``run()`` is the timed
part of the op, and ``check(result)`` is True when every check on its output
passed; checks run outside the op's latency. Work the generator does between
two ops (building an algebra's channel in ``privacy_sweep``) counts in the
measured elapsed time but not in any op's latency. Every round rebuilds its
AlgebraSpec and Channel objects from the raw seeded arrays, so no
per-object cache survives from one round to the next.

Inputs are generated here with numpy alone; pqclab only receives them.
"""

from __future__ import annotations

import functools
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from pqclab import algebras, bloch, channels, cli, condexp

ATOL = 1e-9  # pqclab's default tolerance; every verdict below is taken at it


def _dim(blocks) -> int:
    return sum(m * n for m, n in blocks)


def _haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _unit(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_trace_vector(blocks, u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A trace vector of U^dag (sum_i 1_{m_i} (x) M_{n_i}) U built without
    pqclab: per block, sqrt(m_i/d) times a random m_i x n_i isometry."""
    d = _dim(blocks)
    parts = [np.sqrt(m / d) * _haar(m, rng)[:, :n] for m, n in blocks]
    return u.conj().T @ np.concatenate([p.reshape(-1) for p in parts])


def _condexp_kraus(blocks, u: np.ndarray) -> list[np.ndarray]:
    """Closed-form Kraus operators m_i^{-1/2} U^dag (E_ab (x) 1_{n_i}) U of
    the conditional expectation, written down without pqclab."""
    d = _dim(blocks)
    out, off = [], 0
    for m, n in blocks:
        for a in range(m):
            for b in range(m):
                e = np.zeros((d, d), dtype=np.complex128)
                unit = np.zeros((m, m))
                unit[a, b] = 1.0
                e[off : off + m * n, off : off + m * n] = np.kron(unit, np.eye(n))
                out.append(u.conj().T @ e @ u / np.sqrt(m))
        off += m * n
    return out


def _jmat(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _jvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v).reshape(-1)]


def _algebra_doc(blocks, u) -> dict:
    return {"blocks": [[m, n] for m, n in blocks], "zero_dim": 0, "basis_change": _jmat(u)}


# ---------------------------------------------------------------- privacy_sweep

# Block shapes at d = 4, 8, 12, 16 and 20. Each algebra gets the traffic of
# scripts/equivalence_sweep.py at its defaults: SWEEP_VECTORS random unit
# vectors, which must fail both routes, then the whole trace_vector_onb,
# which must pass both.
SWEEP = (
    ((2, 2),),
    ((2, 2), (4, 1)),
    ((6, 2),),
    ((4, 2), (4, 2)),
    ((5, 2), (10, 1)),
)
SWEEP_VECTORS = 100


class PrivacySweep:
    """The paper's equivalence: trace vector <=> privatized by the
    conditional expectation, decided by both routes for every vector."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for blocks in SWEEP:
            d = _dim(blocks)
            u = _haar(d, rng)
            self.inputs.append((blocks, u, [_unit(d, rng) for _ in range(SWEEP_VECTORS)]))
        self.route_disagreements = 0

    def round(self):
        """Build every algebra, then interleave their ops evenly over the
        round, so that each cost group spans the whole measured time
        instead of one short stretch of it."""
        ops = []
        for blocks, u, randoms in self.inputs:
            d = _dim(blocks)
            alg = algebras.AlgebraSpec(blocks, 0, u)
            ch = condexp.condexp_channel(alg)
            onb = algebras.trace_vector_onb(alg)
            rho0 = channels.DensityOperator(np.eye(d) / d)
            cases = [(v, False) for v in randoms] + [(v, True) for v in onb]
            for j, (v, expected) in enumerate(cases):
                ops.append(((j + 0.5) / len(cases), len(ops),
                            functools.partial(self._decide, alg, ch, rho0, v),
                            functools.partial(self._agree, expected)))
        for _, _, run, check in sorted(ops, key=lambda op: op[:2]):
            yield run, check

    @staticmethod
    def _decide(alg, ch, rho0, v) -> tuple[bool, bool]:
        by_vector = algebras.is_trace_vector(v, alg, rho0).passed
        by_channel = condexp.is_pqc(condexp.PQCInstance((v,), ch, rho0)).verdict
        return by_vector, by_channel

    def _agree(self, expected: bool, verdicts: tuple[bool, bool]) -> bool:
        if verdicts[0] != verdicts[1]:
            self.route_disagreements += 1
            return False
        return verdicts[0] == expected


# ---------------------------------------------------------------- condexp_build

# Multiplicity-heavy, block-size-heavy and many-small-block shapes, d <= 16.
# Entries at odd positions also verify the channel against the same block
# shape under an independent basis change, a different algebra of the same
# dimension, and that check must fail. The seven cheapest shapes (d <= 5)
# put p50 in the middle of a cluster of ops that cost about the same
# (d = 6 to 12), instead of on a step between two costs.
BUILD_SHAPES = (
    ((2, 1), (1, 1)),
    ((1, 2), (1, 2)),
    ((3, 3),),
    ((2, 3), (1, 2)),
    ((2, 4),),
    ((1, 1),) * 8,
    ((1, 2),) * 4,
    ((4, 1),) * 3,
    ((6, 2),),
    ((2, 2),) * 3,
    ((1, 4), (1, 4)),
    ((8, 1), (8, 1)),
    ((1, 1),) * 12,
    ((3, 1), (3, 1), (2, 2), (1, 2)),
    ((2, 1), (2, 1)),
    ((1, 3), (1, 3)),
    ((2, 2),),
    ((3, 1), (1, 2)),
    ((1, 1),) * 4,
    ((2, 1), (1, 2)),
)


class CondexpBuild:
    """Construct a conditional expectation and check it against the axioms."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = []
        for i, blocks in enumerate(BUILD_SHAPES):
            d = _dim(blocks)
            u = _haar(d, rng)
            other = _haar(d, rng) if i % 2 else None
            self.inputs.append((blocks, u, other))

    def round(self):
        for blocks, u, other in self.inputs:
            yield (functools.partial(self._build, blocks, u, other),
                   functools.partial(self._valid, sum(m * m for m, _ in blocks)))

    @staticmethod
    def _build(blocks, u, other) -> tuple[bool, int, bool | None]:
        alg = algebras.AlgebraSpec(blocks, 0, u)
        ch = condexp.condexp_channel(alg)
        passed = condexp.verify_condexp_axioms(ch, alg).passed
        wrong_passed = None
        if other is not None:
            wrong = algebras.AlgebraSpec(blocks, 0, other)
            wrong_passed = condexp.verify_condexp_axioms(ch, wrong).passed
        return passed, len(ch.kraus), wrong_passed

    @staticmethod
    def _valid(kraus_count: int, out) -> bool:
        passed, count, wrong_passed = out
        return passed and count == kraus_count and not wrong_passed


# ---------------------------------------------------------------- qubit_privacy

# (kernel dimension of T, channels per round). An op costs more the more
# states it samples and checks, in the order Empty < AntipodalPair <
# AllStates < GreatCircle; these counts put p50 in the middle of the
# AntipodalPair group and p90 in the middle of the GreatCircle group.
QUBIT_TAGS = ((0, 12), (1, 16), (2, 8), (3, 4))
QUBIT_SAMPLES = 8
_PAULI = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
# largest |lambda| per number of nonzero Pauli eigenvalues, keeping all four
# Pauli weights positive
_LAMBDA_MAX = {1: 0.9, 2: 0.45, 3: 0.3}


def _unital_qubit_kraus(nullity: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Pauli channel with exactly ``nullity`` zero eigenvalues of T, then
    conjugated by Haar unitaries on both sides (T's rank is unchanged)."""
    live = 3 - nullity
    lam = np.zeros(3)
    if live:
        lam[:live] = rng.uniform(0.1, _LAMBDA_MAX[live], live) * rng.choice([-1.0, 1.0], live)
    rng.shuffle(lam)
    x, y, z = lam
    p = 0.25 * np.array([1 + x + y + z, 1 + x - y - z, 1 - x + y - z, 1 - x - y + z])
    v, w = _haar(2, rng), _haar(2, rng)
    return [v @ (np.sqrt(pk) * s) @ w for pk, s in zip(p, _PAULI)]


class QubitPrivacy:
    """Classify a unital qubit channel, sample its private states, and check
    the samples with the channel."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.inputs = [
            (_unital_qubit_kraus(nullity, rng), nullity)
            for nullity, count in QUBIT_TAGS
            for _ in range(count)
        ]
        self.half = channels.DensityOperator(np.eye(2) / 2)

    def round(self):
        for kraus, nullity in self.inputs:
            yield (functools.partial(self._classify, kraus),
                   functools.partial(self._private, nullity))

    def _classify(self, kraus) -> tuple[int, bool | None]:
        ch = channels.from_kraus(kraus)
        tag = bloch.classify(ch)
        samples = bloch.sample_private_states(tag, QUBIT_SAMPLES)
        if not samples:  # Empty: nothing to check with the channel
            return tag.nullity, None
        return tag.nullity, condexp.is_pqc(condexp.PQCInstance(tuple(samples), ch, self.half)).verdict

    @staticmethod
    def _private(nullity: int, out) -> bool:
        found, verdict = out
        return found == nullity and (verdict if verdict is not None else nullity == 0)


# -------------------------------------------------------------- cli_invocations


def _strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _complex(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class CliInvocations:
    """One ``python -m pqclab.cli`` process per op, run one at a time: the
    golden cases byte for byte, plus larger documents written at set-up.
    Three of those cost about twice a golden case, so p90 sits in the middle
    of their group and p50 in the middle of the cheap mass.
    With ``in_process`` the same command lines go through ``cli.main`` with
    stdout captured instead."""

    def __init__(self, seed: int, workdir: Path, in_process: bool, root: Path):
        sys.path.insert(0, str(root / "tests"))
        import golden_cases

        self.root = root
        self.in_process = in_process
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.child_rss_kb = 0
        self.cases = []
        for name, argv in golden_cases.CASES:
            golden = (golden_cases.GOLDEN_DIR / name).read_bytes()
            self.cases.append((list(argv), functools.partial(self._same_bytes, golden)))

        rng = np.random.default_rng(seed)

        def write(name: str, doc: dict) -> str:
            path = workdir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path)

        blocks12 = ((2, 2), (4, 1), (4, 1))
        alg12 = write("alg_d12.json", _algebra_doc(blocks12, _haar(12, rng)))
        self.cases.append(
            (["condexp", alg12, "--emit", "choi", "--verify"], self._check_choi)
        )

        u12 = _haar(12, rng)
        states = [_random_trace_vector(blocks12, u12, rng) for _ in range(32)]
        states += [_unit(12, rng) for _ in range(32)]
        kraus = [_jmat(k) for k in _condexp_kraus(blocks12, u12)]
        argv = [
            "check-pqc",
            write("ch_d12.json", {"kind": "kraus", "kraus": kraus}),
            write("states_d12.json", {"states": [_jvec(s) for s in states]}),
            write("rho0_d12.json", {"rho0": _jmat(np.eye(12) / 12)}),
        ]
        self.cases.append((argv, functools.partial(self._check_pqc, [True] * 32 + [False] * 32)))

        alg16 = write("alg_d16.json", _algebra_doc(((4, 2), (4, 2)), _haar(16, rng)))
        self.cases.append((["trace-vectors", alg16, "--onb"], self._check_onb))
        self.cases.append((["condexp", alg16, "--emit", "kraus"], self._check_kraus))

    def round(self):
        run = self._call if self.in_process else self._spawn
        for argv, check in self.cases:
            yield functools.partial(run, argv), functools.partial(self._exit_ok, check)

    @staticmethod
    def _exit_ok(check, out: tuple[int, bytes]) -> bool:
        return out[0] == 0 and check(out[1])

    def _spawn(self, argv) -> tuple[int, bytes]:
        cmd = [sys.executable, "-m", "pqclab.cli", *argv]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=self.env, cwd=self.root
        )
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            # wait4 reports this child's own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    @staticmethod
    def _call(argv) -> tuple[int, bytes]:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a command line
                code = exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue().encode("utf-8")

    @staticmethod
    def _same_bytes(golden: bytes, out: bytes) -> bool:
        return out == golden

    @staticmethod
    def _check_choi(out: bytes) -> bool:
        res = _strict_json(out.decode("utf-8"))["result"]
        j = _complex(res["choi"])
        return (
            res["axioms"]["passed"] is True
            and j.shape == (144, 144)
            and abs(np.trace(j) - 12) <= 1e-6
            and float(np.max(np.abs(j - j.conj().T))) <= ATOL
        )

    @staticmethod
    def _check_pqc(expected: list[bool], out: bytes) -> bool:
        res = _strict_json(out.decode("utf-8"))["result"]
        private = [r <= ATOL for r in res["residuals"]]
        return res["verdict"] is all(expected) and private == expected

    @staticmethod
    def _check_kraus(out: bytes) -> bool:
        ks = _complex(_strict_json(out.decode("utf-8"))["result"]["kraus"])
        total = np.einsum("kji,kjl->il", ks.conj(), ks)  # sum_k K^dag K
        return ks.shape == (32, 16, 16) and float(np.max(np.abs(total - np.eye(16)))) <= ATOL

    @staticmethod
    def _check_onb(out: bytes) -> bool:
        res = _strict_json(out.decode("utf-8"))["result"]
        vecs = _complex(res["onb"])
        gram = vecs.conj() @ vecs.T
        return (
            vecs.shape == (16, 16)
            and float(np.max(np.abs(gram - np.eye(16)))) <= ATOL
            and res["max_violation"] <= ATOL
        )


def open_workload(name: str, seed: int, workdir: Path, in_process: bool, root: Path):
    if name == "cli_invocations":
        return CliInvocations(seed, workdir, in_process, root)
    return {"privacy_sweep": PrivacySweep, "condexp_build": CondexpBuild,
            "qubit_privacy": QubitPrivacy}[name](seed)
