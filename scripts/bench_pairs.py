#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, summarized per metric.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload qubit_privacy \\
        --pairs 10 --seed 101

PARENT_DIR and CHANGE_DIR are two checkouts, each with its own ``bench/``
and ``src/``. Pair i runs the benchmark command of ``BENCHMARK.json`` from
both at seed S + i for the ``run_seconds`` of ``BENCHMARK.json``, the
parent first in even pairs and the change first in odd ones. For each end-to-end metric of ``BENCHMARK.json`` the summary gives
the parent's median with its quartiles, the change's median, their ratio,
the number of pairs the change won by the metric's ``better``, and
``unresolved`` where the parent's IQR exceeds the metric's bound as a share
of its median. Each run's line goes to stderr as it ends. The exit status is
1 if any run fails or reports ``correct: false``, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, command: list[str], workload: str, seed: int, seconds: float):
    """One benchmark run from checkout: its metric values, or None if it failed."""
    args = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or result.get("correct") is not True:
        print(f"run failed in {checkout} (seed {seed}, exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}{lines[-1] if lines else ''}", file=sys.stderr)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[str]:
    """One line per end-to-end metric over (parent, change) value pairs."""
    lines = []
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        lo, mid, hi = statistics.quantiles(parent, n=4, method="inclusive")
        med = statistics.median(change)
        sign = 1 if better == "higher" else -1
        won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratio = med / mid if mid else float("nan")
        line = (f"{name}: parent {mid:.4g} [{lo:.4g}-{hi:.4g}] -> change {med:.4g} "
                f"(x{ratio:.3f}), change better in {won} of {len(pairs)}")
        spread = (hi - lo) / abs(mid) if mid else float("inf")
        if spread > bound:
            line += f", unresolved (parent IQR {spread:.0%} > bound {bound:.0%})"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs, failed = [], 0
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            got[side] = run_once(sides[side], spec["command"], args.workload, seed,
                                 spec["run_seconds"])
            if got[side] is not None:
                values = " ".join(f"{m['name']}={got[side][m['name']]:.4g}"
                                  for m in spec["end_to_end"])
                print(f"pair {i} seed {seed} {side}: {values}", file=sys.stderr)
        if None in got.values():
            failed += 1
        else:
            pairs.append((got["parent"], got["change"]))

    print(f"workload: {args.workload}  pairs: {len(pairs)} of {args.pairs}  "
          f"seeds: {args.seed}-{args.seed + args.pairs - 1}  seconds: {spec['run_seconds']:g}")
    if len(pairs) >= 2:
        print("\n".join(summarize(pairs, spec["end_to_end"])))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
