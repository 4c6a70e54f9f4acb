"""JSON serialization for channels, algebras, states, and reports.

One structured-text format is used everywhere: complex numbers are
two-element arrays [re, im] (bare reals are accepted on input), matrices
are row-major arrays of arrays, and every document is a JSON object whose
"kind" or field names say what it holds. Output is deterministic: no
timestamps, stable key order, floats through Python repr.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .algebras import AlgebraSpec
from .channels import Channel, depolarizing, from_kraus, random_unitary
from .condexp import collective_noise_channel_n2, condexp_channel
from .errors import PqclabError
from .linalg import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "SpecFormatError",
    "RunReport",
    "matrix_to_json",
    "json_to_vector",
    "json_to_matrix",
    "channel_from_spec",
    "channel_to_spec",
    "algebra_from_spec",
    "algebra_to_spec",
    "NAMED_CHANNELS",
    "MAX_CHANNEL_DIM",
]

# name -> (builder of (d, tol), fixed dimension or None); a name without a
# fixed dimension takes the document's d, default 2
_NAMED_REGISTRY = {
    "identity": (lambda d, tol: from_kraus([np.eye(d)], tol), None),
    "completely_depolarizing": (lambda d, tol: depolarizing(1.0, d), None),
    "dephasing_z": (
        lambda d, tol: random_unitary([0.5, 0.5], [np.eye(2), np.diag([1.0, -1.0])], tol),
        2,
    ),
    "frame_n2": (lambda d, tol: collective_noise_channel_n2()[0], 4),
}
NAMED_CHANNELS = tuple(_NAMED_REGISTRY)

# Largest d_in or d_out of a channel document of any kind, and largest sum
# m*n + zero_dim of an algebra document, so that a few kilobytes of document
# cannot ask for an unbounded allocation. A channel's superoperator, which
# check-pqc forms and an applied channel keeps, and each d^2 x d^2
# superoperator of the axiom check hold d^4 complex entries, 16 MB at d = 32,
# whatever the number of Kraus operators; a depolarizing channel or a
# ((d,1),) expectation has d^2 Kraus operators of d x d. The CLI peaks higher:
# `condexp` on a Haar ((32,1),) algebra writes about 100 MB of JSON and
# peaks near 610 MB RSS (430 MB with --format text), mostly while it
# renders the report; ROADMAP.md's item on streaming the report targets that.
MAX_CHANNEL_DIM = 32


class SpecFormatError(PqclabError):
    """Input document does not match the documented schema."""


def matrix_to_json(m) -> list:
    """Encode a complex array of any rank as nested lists of [re, im] pairs
    (a scalar gives one pair, a matrix rows of pairs)."""
    a = np.asarray(m, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def _json_real(x) -> float:
    """A finite JSON number; json.loads also yields NaN and +-Infinity."""
    if isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max:
        return float(x)
    raise SpecFormatError(f"expected a finite number, got {x!r}")


def _json_int(x, what: str) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise SpecFormatError(f"{what} must be an integer, got {x!r}")


def _json_dim(x) -> int:
    d = _json_int(x, "d")
    if not 1 <= d <= MAX_CHANNEL_DIM:
        raise SpecFormatError(f"d must lie in 1..{MAX_CHANNEL_DIM}, got {d}")
    return d


def _json_operator(obj) -> np.ndarray:
    """A channel document's d_out x d_in operator, both at most MAX_CHANNEL_DIM."""
    m = json_to_matrix(obj)
    if max(m.shape) > MAX_CHANNEL_DIM:
        raise SpecFormatError(f"operator sides must be at most {MAX_CHANNEL_DIM}, got {m.shape}")
    return m


def _json_to_complex(x) -> complex:
    if not isinstance(x, list):
        return complex(_json_real(x))
    if len(x) == 2:
        return complex(_json_real(x[0]), _json_real(x[1]))
    raise SpecFormatError(f"expected a number or [re, im] pair, got {x!r}")


def json_to_vector(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise SpecFormatError("vector must be a nonempty array")
    return np.array([_json_to_complex(x) for x in obj], dtype=np.complex128)


def json_to_matrix(obj) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SpecFormatError("matrix must be a nonempty array of rows")
    rows = [[_json_to_complex(x) for x in r] for r in obj]
    if len({len(r) for r in rows}) != 1:
        raise SpecFormatError("matrix rows have inconsistent lengths")
    return np.array(rows, dtype=np.complex128)


def _require(obj: dict, key: str):
    if key not in obj:
        raise SpecFormatError(f"missing required field {key!r}")
    return obj[key]


def algebra_from_spec(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> AlgebraSpec:
    """Parse {"blocks": [[m, n], ...], "zero_dim": k, "basis_change": matrix|null}."""
    if not isinstance(obj, dict):
        raise SpecFormatError("algebra spec must be an object")
    raw_blocks = _require(obj, "blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise SpecFormatError("blocks must be a nonempty array of [m, n] pairs")
    if not all(isinstance(b, list) and len(b) == 2 for b in raw_blocks):
        raise SpecFormatError(f"blocks entries must be [m, n] pairs, got {raw_blocks!r}")
    blocks = tuple(
        (_json_int(m, "block multiplicity"), _json_int(n, "block size")) for m, n in raw_blocks
    )
    zero_dim = _json_int(obj.get("zero_dim", 0), "zero_dim")
    d = sum(m * n for m, n in blocks) + zero_dim
    # a nonpositive size or negative zero_dim is left for AlgebraSpec to name
    if d > MAX_CHANNEL_DIM and min(min(b) for b in blocks) > 0 and zero_dim >= 0:
        raise SpecFormatError(
            f"algebra dimension sum m*n + zero_dim must be at most {MAX_CHANNEL_DIM}, got {d}"
        )
    raw_u = obj.get("basis_change")
    u = None if raw_u is None else json_to_matrix(raw_u)
    try:
        return AlgebraSpec(blocks, zero_dim, u, tol)
    except ValueError as exc:
        raise SpecFormatError(str(exc)) from exc


def algebra_to_spec(alg: AlgebraSpec) -> dict:
    return {
        "blocks": [[m, n] for m, n in alg.blocks],
        "zero_dim": alg.zero_dim,
        "basis_change": matrix_to_json(alg.basis_change),
    }


def _named_channel(name: str, d: int | None, tol: ToleranceConfig) -> Channel:
    if name not in _NAMED_REGISTRY:
        raise SpecFormatError(f"unknown channel name {name!r}; known: {', '.join(NAMED_CHANNELS)}")
    build, fixed = _NAMED_REGISTRY[name]
    if fixed is not None and d not in (None, fixed):
        raise SpecFormatError(f"named channel {name!r} has fixed dimension {fixed}, got d = {d}")
    return build(fixed or d or 2, tol)


def channel_from_spec(obj: dict, tol: ToleranceConfig = DEFAULT_TOL) -> Channel:
    """Parse a channel document; see docs/file_formats.md for the schema."""
    if not isinstance(obj, dict):
        raise SpecFormatError("channel spec must be an object")
    kind = _require(obj, "kind")
    if kind == "kraus":
        mats = _require(obj, "kraus")
        if not isinstance(mats, list) or not mats:
            raise SpecFormatError("kraus must be a nonempty array of matrices")
        return from_kraus([_json_operator(m) for m in mats], tol)
    if kind == "random_unitary":
        probs = _require(obj, "probs")
        us = _require(obj, "unitaries")
        if not isinstance(probs, list) or not isinstance(us, list):
            raise SpecFormatError("random_unitary needs probs and unitaries arrays")
        return random_unitary([_json_real(p) for p in probs], [_json_operator(u) for u in us], tol)
    if kind == "depolarizing":
        return depolarizing(_json_real(_require(obj, "p")), _json_dim(_require(obj, "d")))
    if kind == "condexp":
        return condexp_channel(algebra_from_spec(_require(obj, "algebra"), tol), tol)
    if kind == "named":
        d = obj.get("d")
        d = None if d is None else _json_dim(d)
        return _named_channel(str(_require(obj, "name")), d, tol)
    raise SpecFormatError(f"unknown channel kind {kind!r}")


def channel_to_spec(ch: Channel) -> dict:
    """Serialize any channel through its Kraus stack (the universal kind)."""
    return {"kind": "kraus", "kraus": matrix_to_json(ch.kraus)}


@dataclass(frozen=True)
class RunReport:
    """Command outcome with stable field order, rendered as JSON or as text
    (layout in docs/file_formats.md). A report is only written for a
    completed run; the process exit status is the only exit code."""

    command: str
    tolerance: float
    result: dict

    def to_json(self) -> str:
        doc = {
            "command": self.command,
            "tolerance": self.tolerance,
            "result": self.result,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"tolerance: {self.tolerance!r}"]

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

        for key, val in self.result.items():
            walk(val, "", key)
        return "\n".join(lines) + "\n"
