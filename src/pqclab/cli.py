"""Command-line interface.

Subcommands: classify, check-pqc, trace-vectors, condexp, demo-frame.
Every file argument is a JSON document (see docs/file_formats.md) and "-"
reads the document from stdin. Machine output (default --format json) is a
RunReport with stable field order; identical inputs produce byte-identical
output. Exit codes: 0 for a completed run (including false verdicts);
1 for anything that fails while reading, decoding or validating an input
file, for a bad --samples or PQCLAB_TOL, for --onb given with --check or
--rho0, and for a failed write of --out;
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


class CliFailure(Exception):
    """Abort the command with a message and a contract exit code."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


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
        raise CliFailure(1, f"bad {what} file {path}: {exc}") from exc


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
    return [float(x) + 0.0 for x in np.asarray(a, dtype=float).reshape(-1)]


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


def _write_sample_csv(path: str, rows: list[dict]) -> None:
    # fixed header, radians, 17 significant digits; meant for external plotting
    def fmt(x: float) -> str:
        return f"{x:.17g}"

    lines = ["theta,rx,ry,rz,re0,im0,re1,im1"]
    for row in rows:
        amps = [x for pair in row["amplitudes"] for x in pair]
        lines.append(",".join(fmt(v) for v in ([row["theta"]] + row["bloch"] + amps)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_classify(args, tol: ToleranceConfig) -> RunReport:
    if not 0 <= args.samples <= MAX_SAMPLES:
        raise CliFailure(1, f"--samples must lie in 0..{MAX_SAMPLES}, got {args.samples}")
    ch = _parse(args.channel, "channel", lambda doc: channel_from_spec(doc, tol))
    pt = transfer(ch, tol)
    tag = classify(ch, tol)
    result = {
        "tag": tag.tag,
        "nullity": tag.nullity,
        "T": [_floats(row) for row in pt.T],
        "t": _floats(pt.t),
    }
    if isinstance(tag, AntipodalPair):
        result["states"] = matrix_to_json(tag.states)
    if isinstance(tag, GreatCircle):
        result["normal"] = _floats(tag.normal)
    if args.samples:
        result["samples"] = _sample_rows(sample_private_states(tag, args.samples))
    if args.out:
        _write_sample_csv(args.out, result.get("samples", []))
    return RunReport("classify", tol.atol, result)


def cmd_check_pqc(args, tol: ToleranceConfig) -> RunReport:
    ch = _parse(args.channel, "channel", lambda doc: channel_from_spec(doc, tol))
    states = _parse(args.states, "states", _states)
    rho0 = _rho0(args.rho0, tol)
    report = is_pqc(PQCInstance(states, ch, rho0, tol), tol)
    result = {"verdict": report.verdict, "residuals": [float(r) for r in report.residuals]}
    return RunReport("check-pqc", tol.atol, result)


def cmd_trace_vectors(args, tol: ToleranceConfig) -> RunReport:
    if args.onb and (args.check is not None or args.rho0 is not None):
        raise CliFailure(1, "--onb takes neither --check nor --rho0")
    alg = _parse(args.algebra, "algebra", lambda doc: algebra_from_spec(doc, tol))
    result: dict
    if args.onb:
        try:
            vectors = trace_vector_onb(alg)
        except NoTraceVectors:
            return RunReport(
                "trace-vectors",
                tol.atol,
                {"no_trace_vectors": True, "blocks": [[m, n] for m, n in alg.blocks]},
            )
        rho0 = DensityOperator(np.eye(alg.dim) / alg.dim, tol)
        mat = np.array(vectors)
        gram = mat.conj() @ mat.T
        worst = max(is_trace_vector(v, alg, rho0, tol).max_violation for v in vectors)
        result = {
            "onb": matrix_to_json(vectors),
            "gram_deviation": float(np.max(np.abs(gram - np.eye(alg.dim)))),
            "max_violation": float(worst),
        }
    elif args.check:
        v = _parse(args.check, "vector", lambda doc: json_to_vector(_require(doc, "vector")))
        rho0 = (
            _rho0(args.rho0, tol)
            if args.rho0
            else DensityOperator(np.eye(alg.dim) / alg.dim, tol)
        )
        report = is_trace_vector(v, alg, rho0, tol)
        result = {"passed": report.passed, "max_violation": float(report.max_violation)}
    elif args.rho0:
        rho0 = _rho0(args.rho0, tol)
        v = trace_vector_wrt(alg, rho0, tol)
        report = is_trace_vector(v, alg, rho0, tol)
        result = {
            "vector": matrix_to_json(v),
            "passed": report.passed,
            "max_violation": float(report.max_violation),
        }
    else:
        result = {
            "has_trace_vector": has_trace_vector(alg),
            "dim": alg.dim,
            "blocks": [[m, n] for m, n in alg.blocks],
        }
    return RunReport("trace-vectors", tol.atol, result)


def cmd_condexp(args, tol: ToleranceConfig) -> RunReport:
    alg = _parse(args.algebra, "algebra", lambda doc: algebra_from_spec(doc, tol))
    ch = condexp_channel(alg, tol)
    result: dict = {"dim": alg.dim}
    if args.emit == "kraus":
        result["kraus"] = matrix_to_json(ch.kraus)
    elif args.emit == "choi":
        result["choi"] = matrix_to_json(choi(ch))
    elif args.emit == "transfer":
        pt = transfer(ch, tol)
        result["transfer"] = {"T": [_floats(r) for r in pt.T], "t": _floats(pt.t)}
    if args.verify:
        result["axioms"] = asdict(verify_condexp_axioms(ch, alg, tol))
    return RunReport("condexp", tol.atol, result)


def cmd_demo_frame(args, tol: ToleranceConfig) -> RunReport:
    ch, alg = collective_noise_channel_n2()
    axioms = verify_condexp_axioms(ch, alg, tol)
    rho0 = DensityOperator(np.eye(4) / 4, tol)
    v = trace_vector_wrt(alg, rho0, tol)
    u = alg.basis_change
    triplet_proj = u.conj().T @ np.diag([1.0, 1.0, 1.0, 0.0]) @ u
    weight = float(np.real(v.conj() @ triplet_proj @ v))
    verdict = is_pqc(PQCInstance((v,), ch, rho0, tol), tol)
    result = {
        "axioms": asdict(axioms),
        "vector": matrix_to_json(v),
        "triplet_weight": weight,
        "singlet_weight": float(1.0 - weight),
        "is_pqc": verdict.verdict,
        "residuals": [float(r) for r in verdict.residuals],
    }
    return RunReport("demo-frame", tol.atol, result)


def _render_text(report: RunReport) -> str:
    lines = [f"command: {report.command}", f"tolerance: {report.tolerance!r}"]

    def walk(value, indent: str, label: str):
        if isinstance(value, dict):
            lines.append(f"{indent}{label}:")
            for k, v in value.items():
                walk(v, indent + "  ", k)
        elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
            lines.append(f"{indent}{label}:")
            for i, v in enumerate(value):
                walk(v, indent + "  ", f"[{i}]")
        else:
            lines.append(f"{indent}{label}: {value!r}")

    for key, val in report.result.items():
        walk(val, "", key)
    lines.append("exit_code: 0")
    return "\n".join(lines) + "\n"


def _resolve_tol(args) -> ToleranceConfig:
    """--tol, else PQCLAB_TOL, else DEFAULT_TOL; the variable is read only
    when the flag is absent."""
    atol = args.tol
    if atol is None:
        env = os.environ.get(ENV_TOL)
        try:
            atol = DEFAULT_TOL.atol if env is None else float(env)
        except ValueError as exc:
            raise CliFailure(1, f"cannot parse {ENV_TOL}={env!r} as a float") from exc
    try:
        return ToleranceConfig(atol)
    except ValueError as exc:
        raise CliFailure(1, str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqclab",
        description="Private quantum channels, conditional expectations, trace vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--tol",
            type=float,
            default=None,
            help=f"absolute tolerance (default {DEFAULT_TOL.atol:g})",
        )
        p.add_argument(
            "--format", choices=["json", "text"], default="json", help="output format"
        )

    p = sub.add_parser("classify", help="classify the private states of a unital qubit channel")
    p.add_argument("channel", help="channel spec file, or - for stdin")
    p.add_argument("--samples", type=int, default=0, help="sample this many private states")
    p.add_argument("--out", default=None, help="write sampled states as CSV to this path")
    common(p)

    p = sub.add_parser("check-pqc", help="check that a channel privatizes the given states")
    p.add_argument("channel")
    p.add_argument("states", help="JSON file with a 'states' array")
    p.add_argument("rho0", help="JSON file with a 'rho0' matrix")
    common(p)

    p = sub.add_parser("trace-vectors", help="trace-vector constructions and checks")
    p.add_argument("algebra", help="algebra spec file, or - for stdin")
    p.add_argument("--onb", action="store_true", help="emit an orthonormal trace-vector basis")
    p.add_argument("--check", default=None, help="JSON file with a 'vector' to check")
    p.add_argument("--rho0", default=None, help="JSON file with a 'rho0' matrix")
    common(p)

    p = sub.add_parser("condexp", help="build the conditional expectation channel of an algebra")
    p.add_argument("algebra")
    p.add_argument("--emit", choices=["kraus", "choi", "transfer"], default="kraus")
    p.add_argument("--verify", action="store_true", help="append an axiom report")
    common(p)

    p = sub.add_parser("demo-frame", help="run the two-qubit collective-noise demo end to end")
    common(p)

    return parser


COMMANDS = {
    "classify": cmd_classify,
    "check-pqc": cmd_check_pqc,
    "trace-vectors": cmd_trace_vectors,
    "condexp": cmd_condexp,
    "demo-frame": cmd_demo_frame,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tol = _resolve_tol(args)
        report = COMMANDS[args.command](args, tol)
    except CliFailure as exc:
        code, message = exc.exit_code, str(exc)
    except OSError as exc:  # writing --out; every input is read through _parse
        code, message = 1, str(exc)
    except (PqclabError, ValueError) as exc:  # raised once every input is built
        code, message = 2, f"{type(exc).__name__}: {exc}"
    else:
        sys.stdout.write(report.to_json() if args.format == "json" else _render_text(report))
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
