"""Command-line interface.

Subcommands: classify, check-pqc, trace-vectors, condexp, demo-frame.
Every file argument is a JSON document (see docs/file_formats.md) and "-"
reads it from stdin, for at most one input. Each cmd_* returns its result
dict; main is the one place that builds the RunReport, written as JSON
(default) or text, and maps exceptions to exit codes. Exit codes: 0 for a
completed run (including false verdicts); 1 for anything that fails while
reading, decoding or validating an input file, for "-" given twice, for a
bad --samples or PQCLAB_TOL, for --onb given with --check or --rho0, for
classify --out - (stdout carries the report, so the CSV never goes there;
refused before any input is read), and for a failed write of --out,
including an empty path;
2 for any PqclabError or ValueError raised once all inputs are built, such
as a non-unital input, a dimension mismatch or a --tol below float
rounding. Stdout is empty unless the exit code is 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .algebras import (
    has_trace_vector,
    is_trace_vector,
    trace_vector_onb,
    trace_vector_wrt,
)
from .bloch import (
    PAULIS,
    AntipodalPair,
    GreatCircle,
    classify,
    sample_private_states,
    transfer,
)
from .channels import DensityOperator, choi
from .condexp import (
    PQCInstance,
    collective_noise_channel_n2,
    condexp_channel,
    is_pqc,
    verify_condexp_axioms,
)
from .errors import NoTraceVectors, PqclabError
from .io import (
    RunReport,
    SpecFormatError,
    _require,
    algebra_from_spec,
    channel_from_spec,
    json_to_matrix,
    json_to_vector,
    matrix_to_json,
)
from .linalg import DEFAULT_TOL, ToleranceConfig

ENV_TOL = "PQCLAB_TOL"

# Largest --samples classify accepts. Every sampled state is kept in the
# report, so time and memory grow with the count; the cap bounds both.
MAX_SAMPLES = 10_000

# argparse dests that name an input file; stdin ("-") can feed only one
_INPUTS = ("channel", "states", "rho0", "algebra", "check")


class CliFailure(Exception):
    """Abort the command with a message; main exits 1."""


def _parse(path: str, what: str, build):
    """Read the JSON object in ``path`` ("-" for stdin) and return ``build(doc)``.

    Anything that fails on the way, reading, decoding (including nesting
    too deep for the decoder, a RecursionError) or building, is an input
    error (exit 1) naming the file.
    """
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SpecFormatError("top-level value must be an object")
        return build(doc)
    except (OSError, ValueError, RecursionError, PqclabError) as exc:
        raise CliFailure(f"bad {what} file {path}: {exc}") from exc


def _rho0(path: str, tol: ToleranceConfig) -> DensityOperator:
    return _parse(
        path, "rho0", lambda doc: DensityOperator(json_to_matrix(_require(doc, "rho0")), tol)
    )


def _states(doc: dict) -> tuple:
    states = _require(doc, "states")
    if not isinstance(states, list) or not states:
        raise SpecFormatError("'states' must be a nonempty array")
    return tuple(json_to_vector(s) for s in states)


def _floats(a) -> list:
    """A real array of any rank as nested lists, with -0.0 turned into 0.0."""
    return (np.asarray(a, dtype=float) + 0.0).tolist()


def _sample_rows(kets: list[np.ndarray]) -> list[dict]:
    """theta, Bloch vector and amplitudes of each sampled ket. The Bloch
    vectors r_k = trace(|ket><ket| sigma_k) are one contraction over the
    stacked states, and the amplitudes one encoding."""
    kets = np.array(kets, dtype=np.complex128).reshape(-1, 2)
    rhos = kets[:, :, None] * kets.conj()[:, None, :]
    # + 0.0 turns -0.0 into 0.0, as _floats does
    rs = np.einsum("nij,kji->nk", rhos, np.stack(PAULIS)).real + 0.0
    thetas = np.arccos(np.clip(rs[:, 2], -1.0, 1.0))
    return [
        {"theta": theta, "bloch": r, "amplitudes": amps}
        for theta, r, amps in zip(thetas.tolist(), rs.tolist(), matrix_to_json(kets))
    ]


def cmd_classify(args, tol: ToleranceConfig) -> dict:
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise CliFailure(f"--samples must lie in 0..{MAX_SAMPLES}, got {args.samples}")
    if args.out == "-":
        raise CliFailure("--out - is refused: stdout carries the JSON report")
    ch = _parse(args.channel, "channel", lambda doc: channel_from_spec(doc, tol))
    pt = transfer(ch, tol)
    tag = classify(ch, tol)
    result = {"tag": tag.tag, "nullity": tag.nullity, "T": _floats(pt.T), "t": _floats(pt.t)}
    if isinstance(tag, AntipodalPair):
        result["states"] = matrix_to_json(tag.states)
    if isinstance(tag, GreatCircle):
        result["normal"] = _floats(tag.normal)
    rows = _sample_rows(sample_private_states(tag, args.samples)) if args.samples else []
    if args.samples:
        result["samples"] = rows
    if args.out is not None:
        # fixed header, radians, 17 significant digits; meant for external
        # plotting. The file is opened here: np.savetxt would gzip a .gz path.
        table = [[r["theta"], *r["bloch"], *np.ravel(r["amplitudes"])] for r in rows]
        header = "theta,rx,ry,rz,re0,im0,re1,im1"
        with open(args.out, "w", encoding="utf-8") as fh:
            np.savetxt(fh, np.reshape(table, (-1, 8)), "%.17g", ",", header=header, comments="")
    return result


def cmd_check_pqc(args, tol: ToleranceConfig) -> dict:
    ch = _parse(args.channel, "channel", lambda doc: channel_from_spec(doc, tol))
    states = _parse(args.states, "states", _states)
    rho0 = _rho0(args.rho0, tol)
    report = is_pqc(PQCInstance(states, ch, rho0, tol), tol)
    return {"verdict": report.verdict, "residuals": [float(r) for r in report.residuals]}


def cmd_trace_vectors(args, tol: ToleranceConfig) -> dict:
    if args.onb and (args.check is not None or args.rho0 is not None):
        raise CliFailure("--onb takes neither --check nor --rho0")
    alg = _parse(args.algebra, "algebra", lambda doc: algebra_from_spec(doc, tol))
    blocks = [[m, n] for m, n in alg.blocks]
    if args.check is not None:
        v = _parse(args.check, "vector", lambda doc: json_to_vector(_require(doc, "vector")))
    if args.rho0 is not None:
        rho0 = _rho0(args.rho0, tol)
    else:
        rho0 = DensityOperator(np.eye(alg.dim) / alg.dim, tol)
    if args.onb:
        try:
            vectors = trace_vector_onb(alg)
        except NoTraceVectors:
            return {"no_trace_vectors": True, "blocks": blocks}
        mat = np.array(vectors)
        gram = mat.conj() @ mat.T
        worst = max(is_trace_vector(v, alg, rho0, tol).max_violation for v in vectors)
        return {
            "onb": matrix_to_json(vectors),
            "gram_deviation": float(np.max(np.abs(gram - np.eye(alg.dim)))),
            "max_violation": float(worst),
        }
    if args.check is None and args.rho0 is None:
        return {"has_trace_vector": has_trace_vector(alg), "dim": alg.dim, "blocks": blocks}
    result = {}
    if args.check is None:  # --rho0 alone: report the constructed vector
        v = trace_vector_wrt(alg, rho0, tol)
        result["vector"] = matrix_to_json(v)
    report = is_trace_vector(v, alg, rho0, tol)
    return {**result, "passed": report.passed, "max_violation": float(report.max_violation)}


def cmd_condexp(args, tol: ToleranceConfig) -> dict:
    alg = _parse(args.algebra, "algebra", lambda doc: algebra_from_spec(doc, tol))
    ch = condexp_channel(alg, tol)
    result: dict = {"dim": alg.dim}
    if args.emit == "kraus":
        result["kraus"] = matrix_to_json(ch.kraus)
    elif args.emit == "choi":
        result["choi"] = matrix_to_json(choi(ch))
    elif args.emit == "transfer":
        pt = transfer(ch, tol)
        result["transfer"] = {"T": _floats(pt.T), "t": _floats(pt.t)}
    if args.verify:
        result["axioms"] = asdict(verify_condexp_axioms(ch, alg, tol))
    return result


def cmd_demo_frame(args, tol: ToleranceConfig) -> dict:
    ch, alg = collective_noise_channel_n2()
    axioms = verify_condexp_axioms(ch, alg, tol)
    rho0 = DensityOperator(np.eye(4) / 4, tol)
    v = trace_vector_wrt(alg, rho0, tol)
    u = alg.basis_change
    triplet_proj = u.conj().T @ np.diag([1.0, 1.0, 1.0, 0.0]) @ u
    weight = float(np.real(v.conj() @ triplet_proj @ v))
    verdict = is_pqc(PQCInstance((v,), ch, rho0, tol), tol)
    return {
        "axioms": asdict(axioms),
        "vector": matrix_to_json(v),
        "triplet_weight": weight,
        "singlet_weight": float(1.0 - weight),
        "is_pqc": verdict.verdict,
        "residuals": [float(r) for r in verdict.residuals],
    }


def _resolve_tol(args) -> ToleranceConfig:
    """--tol, else PQCLAB_TOL, else DEFAULT_TOL; the variable is read only
    when the flag is absent."""
    atol = args.tol
    if atol is None:
        env = os.environ.get(ENV_TOL)
        try:
            atol = DEFAULT_TOL.atol if env is None else float(env)
        except ValueError as exc:
            raise CliFailure(f"cannot parse {ENV_TOL}={env!r} as a float") from exc
    try:
        return ToleranceConfig(atol)
    except ValueError as exc:
        raise CliFailure(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqclab",
        description="Private quantum channels, conditional expectations, trace vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p.add_argument(
            "--tol", type=float, help=f"absolute tolerance (default {DEFAULT_TOL.atol:g})"
        )
        p.add_argument("--format", choices=["json", "text"], default="json", help="output format")

    p = sub.add_parser("classify", help="classify the private states of a unital qubit channel")
    p.add_argument("channel", help="channel spec file, or - for stdin")
    p.add_argument("--samples", type=int, default=0, help="sample this many private states")
    p.add_argument("--out", default=None, help="write sampled states as CSV to this path")
    common(p, cmd_classify)

    p = sub.add_parser("check-pqc", help="check that a channel privatizes the given states")
    p.add_argument("channel")
    p.add_argument("states", help="JSON file with a 'states' array")
    p.add_argument("rho0", help="JSON file with a 'rho0' matrix")
    common(p, cmd_check_pqc)

    p = sub.add_parser("trace-vectors", help="trace-vector constructions and checks")
    p.add_argument("algebra", help="algebra spec file, or - for stdin")
    p.add_argument("--onb", action="store_true", help="emit an orthonormal trace-vector basis")
    p.add_argument("--check", default=None, help="JSON file with a 'vector' to check")
    p.add_argument("--rho0", default=None, help="JSON file with a 'rho0' matrix")
    common(p, cmd_trace_vectors)

    p = sub.add_parser("condexp", help="build the conditional expectation channel of an algebra")
    p.add_argument("algebra")
    p.add_argument("--emit", choices=["kraus", "choi", "transfer"], default="kraus")
    p.add_argument("--verify", action="store_true", help="append an axiom report")
    common(p, cmd_condexp)

    p = sub.add_parser("demo-frame", help="run the two-qubit collective-noise demo end to end")
    common(p, cmd_demo_frame)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the first read of stdin drains it, so refuse a second before any
        if [getattr(args, k, None) for k in _INPUTS].count("-") > 1:
            raise CliFailure("- (stdin) may be given for at most one input")
        tol = _resolve_tol(args)
        result = args.run(args, tol)
    except (CliFailure, OSError) as exc:  # OSError: writing --out; inputs go through _parse
        code, message = 1, str(exc)
    except (PqclabError, ValueError) as exc:  # raised once every input is built
        code, message = 2, f"{type(exc).__name__}: {exc}"
    else:
        report = RunReport(args.command, tol.atol, result)
        sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
