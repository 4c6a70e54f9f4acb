#!/usr/bin/env python3
"""pqclab benchmark: one closed-loop workload per run, one client, seeded.

    python3 bench/run.py --workload privacy_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; pqclab is imported from the ``src/`` directory next to
``bench/``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before it
list every metric with its unit, the latency sample count, the fail ratio
and the environment. See bench/NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("privacy_sweep", "condexp_build", "qubit_privacy", "cli_invocations")
BLAS_THREADS = 1  # fixed and at most nproc: steadier than BLAS's own choice
MIN_OPS = 100  # so that at least ten latency samples lie beyond p90
SETUP_REPEATS = 7  # set-ups per run; setup_s is their median
STARTUP_REPEATS = 7  # fresh processes per cli.startup probe
MAX_TRACEBACKS = 3


@dataclass
class Phase:
    """Latencies of the ops of one measured phase."""

    latencies: list[float]
    failed: int
    errors: int  # exceptions raised between ops, e.g. while building an algebra
    elapsed: float

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.errors

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.elapsed


_tracebacks = 0


def _report_exception() -> None:
    global _tracebacks
    _tracebacks += 1
    if _tracebacks <= MAX_TRACEBACKS:
        traceback.print_exc(file=sys.stderr)


def run_op(op, tracer=None) -> tuple[bool, float]:
    """Time ``run()`` of a ``(run, check)`` op, then check its result untimed.
    Returns (passed, seconds)."""
    run, check = op
    if tracer is not None:
        tracer.op_start()
    t0 = time.perf_counter()
    try:
        out = run()
        elapsed = time.perf_counter() - t0
    except Exception:
        _report_exception()
        return False, time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.op_end()
    try:
        return bool(check(out)), elapsed
    except Exception:
        _report_exception()
        return False, elapsed


def measure(wl, seconds: float = 0.0, rounds: int | None = None, tracer=None) -> Phase:
    """Run whole rounds, one op at a time, until ``rounds`` are done or, when
    ``rounds`` is None, until ``seconds`` have passed and MIN_OPS ops ran.
    A round that raises, or a run twice as long as asked, also ends it."""
    clock = time.perf_counter
    latencies: list[float] = []
    failed = errors = done = 0
    start = clock()
    while True:
        ops = wl.round()
        while True:
            try:
                op = next(ops)
            except StopIteration:
                break
            except Exception:
                _report_exception()
                errors += 1
                break
            ok, latency = run_op(op, tracer)
            latencies.append(latency)
            failed += not ok
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif clock() - start >= seconds and (
            len(latencies) >= MIN_OPS or errors or clock() - start >= 2 * seconds
        ):
            break
    return Phase(latencies, failed + errors, errors, clock() - start)


def open_workload(name: str, seed: int, workdir: Path, in_process: bool):
    """Set up a workload: import pqclab, generate inputs and documents, and
    run one discarded warm-up op. Returns (workload, seconds, warm-up ok)."""
    t0 = time.perf_counter()
    import numpy as np

    import workloads

    wl = workloads.open_workload(name, seed, workdir, in_process, ROOT)
    # the first LAPACK call of a process pays a one-off start-up cost
    np.linalg.eigh(np.eye(64, dtype=np.complex128))
    ops = wl.round()
    try:
        warm_ok, _ = run_op(next(ops))
    finally:
        ops.close()
    return wl, time.perf_counter() - t0, warm_ok


def trace_round(wl):
    """One traced round; returns (phase, tracer) with the tracer removed again."""
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    try:
        phase = measure(wl, rounds=1, tracer=tr)
    finally:
        tr.uninstall()
    return phase, tr


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    # threads is None when no OpenBLAS thread query was found
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads, "threads_requested": BLAS_THREADS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time of a fresh process, so the pqclab import is paid again."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def startup_probes() -> dict[str, float]:
    """Fresh-process medians: bare interpreter, numpy import, pqclab.cli import."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timed = "import time; t = time.perf_counter(); import {mod}; print(time.perf_counter() - t)"

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT)
        return time.perf_counter() - t0

    def inner(code: str) -> float:
        out = subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT,
                             capture_output=True, text=True).stdout
        return float(out.split()[-1])

    reps = range(STARTUP_REPEATS)
    return {
        "cli.startup.interpreter_ms": 1e3 * statistics.median(wall("pass") for _ in reps),
        "cli.startup.numpy_import_ms": 1e3 * statistics.median(
            inner(timed.format(mod="numpy")) for _ in reps),
        "cli.startup.pqclab_import_ms": 1e3 * statistics.median(
            inner("import numpy; " + timed.format(mod="pqclab.cli")) for _ in reps),
    }


def end_to_end(name: str, phase: Phase, setup_s: float, wl) -> dict:
    deciles = statistics.quantiles(phase.latencies, n=10, method="inclusive")
    if name == "cli_invocations":
        rss_kb = wl.child_rss_kb  # the largest single CLI process
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_ms.p50": (1e3 * deciles[4], "ms"),
        "op_ms.p90": (1e3 * deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(name: str, wl, untraced: Phase, traced: Phase, tr) -> dict:
    metrics = {}
    for fn, stats in tr.summary().items():
        metrics[f"{fn}.calls"] = (stats["calls"], "count")
        metrics[f"{fn}.self_s"] = (stats["self_s"], "s")
    kept = tr.kraus_kept / tr.kraus_examined if tr.kraus_examined else 0.0
    metrics["condexp.condexp_channel.kraus_kept_ratio"] = (kept, "ratio")
    metrics["condexp.route_disagreements"] = (getattr(wl, "route_disagreements", 0), "count")
    # only cli_invocations starts fresh processes; elsewhere these read 0
    probes = startup_probes() if name == "cli_invocations" else {}
    for key in ("cli.startup.interpreter_ms", "cli.startup.numpy_import_ms",
                "cli.startup.pqclab_import_ms"):
        metrics[key] = (probes.get(key, 0.0), "ms")
    metrics["trace.overhead_ratio"] = (untraced.ops_per_s / traced.ops_per_s, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pqclab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pqclab" / "__init__.py").is_file():
        print(f"error: no pqclab sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # cli_invocations' traced run calls cli.main in-process
        in_process = bool(args.trace) and args.workload == "cli_invocations"
        if args.setup_only:
            _, setup_s, _ = open_workload(args.workload, args.seed, workdir, in_process)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setups = [] if args.trace else [
            setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        wl, setup_s, warm_ok = open_workload(args.workload, args.seed, workdir, in_process)
        setups.append(setup_s)
        phase = measure(wl, seconds=args.seconds)
        attempted, failed = phase.attempted + 1, phase.failed + (not warm_ok)
        env = environment()

        if args.trace:
            traced, tr = trace_round(wl)
            attempted += traced.attempted
            failed += traced.failed
            metrics = per_layer(args.workload, wl, phase, traced, tr)
            dump = {"workload": args.workload, "seed": args.seed, "environment": env,
                    "metrics": {k: v for k, (v, _) in metrics.items()}, **tr.dump()}
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps(dump), encoding="utf-8")
            print(f"spans: {len(tr.spans)} written to {trace_path}")
        else:
            metrics = end_to_end(args.workload, phase, statistics.median(setups), wl)

        print(f"environment: {json.dumps(env)}")
        print(f"workload: {args.workload}  seed: {args.seed}  "
              f"latency samples: {len(phase.latencies)}")
        for key, (value, unit) in metrics.items():
            print(f"{key}: {value:.6g} {unit}")
        print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} ops)")
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
