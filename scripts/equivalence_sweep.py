#!/usr/bin/env python3
"""Randomized sweep comparing the two privacy-decision routes.

For each random unital block algebra, the trace-vector check and the
direct apply-the-channel check are run on a batch of random unit vectors
plus the constructed orthonormal trace-vector basis. The two verdicts
must agree everywhere, and both routes must accept every basis vector;
the script exits 1 otherwise. The summary also reports how far the
failing vectors stay from the decision threshold, which is the margin
that makes the verdicts numerically stable.

    python3 scripts/equivalence_sweep.py --algebras 50 --vectors 100 --seed 7
"""

import argparse
import sys
from pathlib import Path

import numpy as np

# the checkout's own package, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pqclab.algebras import is_trace_vector, trace_vector_onb  # noqa: E402
from pqclab.channels import DensityOperator  # noqa: E402
from pqclab.condexp import PQCInstance, condexp_channel, is_pqc  # noqa: E402
from pqclab.rand import random_block_algebra, random_unit_vector  # noqa: E402


def run(algebras: int, vectors: int, seed: int, max_dim: int) -> int:
    """Sweep and print the summary; returns the number of disagreements
    plus the number of basis vectors that either route rejects."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    rejected_basis = 0
    basis_total = 0
    passes = 0
    worst_pass = 0.0  # largest violation among accepted vectors
    best_fail = np.inf  # smallest violation among rejected vectors

    for i in range(algebras):
        alg = random_block_algebra(rng, max_dim=max_dim, admit_trace_vectors=True)
        ch = condexp_channel(alg)
        rho0 = DensityOperator(np.eye(alg.dim) / alg.dim)
        randoms = [random_unit_vector(alg.dim, rng) for _ in range(vectors)]
        onb = trace_vector_onb(alg)
        basis_total += len(onb)
        for j, v in enumerate(randoms + onb):
            report = is_trace_vector(v, alg, rho0)
            direct = is_pqc(PQCInstance((v,), ch, rho0))
            where = f"algebra {i} blocks={alg.blocks}"
            margins = f"violation {report.max_violation:.3e}, residual {max(direct.residuals):.3e}"
            if report.passed != direct.verdict:
                disagreements += 1
                print(f"{where}: verdict split ({margins})")
            if j >= vectors and not (report.passed and direct.verdict):
                rejected_basis += 1
                print(f"{where}: basis vector {j - vectors} rejected ({margins})")
            if report.passed:
                passes += 1
                worst_pass = max(worst_pass, report.max_violation)
            else:
                best_fail = min(best_fail, report.max_violation)

    total = algebras * vectors + basis_total
    print(f"algebras: {algebras} (dim <= {max_dim}), vectors per algebra: {vectors} random + basis")
    print(f"accepted vectors: {passes}")
    print(f"largest violation among accepted: {worst_pass:.3e}")
    print(f"smallest violation among rejected: {best_fail:.3e}")
    print(f"rejected basis vectors: {rejected_basis} / {basis_total}")
    print(f"disagreements between the two routes: {disagreements} / {total} vectors")
    return disagreements + rejected_basis


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--algebras", type=int, default=50)
    parser.add_argument("--vectors", type=int, default=100)
    parser.add_argument("--max-dim", type=int, default=12)
    parser.add_argument("--seed", type=int, default=20260821)
    return parser.parse_args()


if __name__ == "__main__":
    args = parse_args()
    raise SystemExit(1 if run(args.algebras, args.vectors, args.seed, args.max_dim) else 0)
