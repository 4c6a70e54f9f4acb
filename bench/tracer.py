"""In-memory span tracer for the traced benchmark run.

Only ``run.py --trace 1`` imports this module; the timed run never does.
Each named public function of pqclab is wrapped at every module namespace
that looks it up (and on its class, for methods), so nested calls such as
``Channel.apply_matrix`` inside ``is_pqc`` are recorded too. A span is
``[name index, op id, parent span index, start, end]``; spans of one
benchmark op share the op id, and work between ops carries op id -1.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, attribute path inside pqclab.<layer>), in the order reported.
TARGETS = (
    ("linalg", "partial_trace"),
    ("linalg", "nullspace_basis"),
    ("linalg", "is_psd"),
    ("channels", "from_kraus"),
    ("channels", "Channel.apply_matrix"),
    ("channels", "choi"),
    ("channels", "superoperator"),
    ("channels", "kraus_from_choi"),
    ("algebras", "project_onto_algebra"),
    ("algebras", "projection_superoperator"),
    ("algebras", "is_trace_vector"),
    ("algebras", "trace_vector_onb"),
    ("condexp", "condexp_channel"),
    ("condexp", "verify_condexp_axioms"),
    ("condexp", "is_pqc"),
    ("condexp", "PQCInstance"),
    ("bloch", "transfer"),
    ("bloch", "classify"),
    ("bloch", "sample_private_states"),
    ("io", "channel_from_spec"),
    ("io", "algebra_from_spec"),
    ("io", "json_to_matrix"),
    ("io", "matrix_to_json"),
    ("io", "RunReport.to_json"),
    ("cli", "main"),
)

OP_SPAN = "bench.op"


def target_names() -> list[str]:
    return [f"{layer}.{path}" for layer, path in TARGETS]


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children count once, and a
    child sticking out of its parent counts only inside it)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[2] >= 0:
            children.setdefault(s[2], []).append((s[3], s[4]))
    out = []
    for i, s in enumerate(spans):
        start, end = s[3], s[4]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans around the TARGETS; install() patches, uninstall() restores."""

    def __init__(self):
        self.names = target_names() + [OP_SPAN]
        self.spans: list[list] = []
        self.op_id = -1
        self._ops = 0
        self.kraus_kept = 0
        self.kraus_examined = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, post=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, self.op_id, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if post is not None:
                post(out)
            return out

        return wrapper

    def _count_kraus(self, ch) -> None:
        self.kraus_kept += len(ch.kraus)
        self.kraus_examined += ch.dim_in * ch.dim_out

    def install(self) -> None:
        """Wrap every target in every pqclab module that holds it."""
        import importlib

        owners = [importlib.import_module(f"pqclab.{layer}") for layer, _ in TARGETS]
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pqclab" or name.startswith("pqclab."))]
        for idx, ((_, path), owner) in enumerate(zip(TARGETS, owners)):
            head, _, method = path.partition(".")
            obj = getattr(owner, head)
            if method or isinstance(obj, type):
                # a method, or a class whose construction is timed
                attr = method or "__init__"
                self._patch(obj, attr, self._wrap(idx, vars(obj)[attr]))
                continue
            post = self._count_kraus if path == "condexp_channel" else None
            wrapper = self._wrap(idx, obj, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        self._patch(mod, key, wrapper)

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def op_start(self) -> None:
        """Open the span of the next op; ops are numbered from 0."""
        self.op_id = self._ops
        self._ops += 1
        self._stack.append(len(self.spans))
        self.spans.append([len(self.names) - 1, self.op_id, -1, time.perf_counter(), 0.0])

    def op_end(self) -> None:
        self.spans[self._stack.pop()][4] = time.perf_counter()
        self.op_id = -1

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"calls", "self_s"} for every target, zero when unused."""
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names[:-1]}
        for s, self_s in zip(self.spans, self_times(self.spans)):
            if s[0] < len(TARGETS):
                entry = out[self.names[s[0]]]
                entry["calls"] += 1
                entry["self_s"] += self_s
        return out

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans}
