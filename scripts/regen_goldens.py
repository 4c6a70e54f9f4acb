#!/usr/bin/env python3
"""Rewrite tests/data/ input files and tests/golden/ expected CLI output.

Run from anywhere; paths are anchored to the repository layout. Goldens
are the exact stdout bytes of each command line in tests/golden_cases.py,
so regenerate them only when an intentional output change is made.

With --check nothing is written: every input file and golden whose
checked-in bytes differ from what would be written is listed, each with a
line saying whether only numbers moved, and by how much at most, or where
the structure first changed, and the exit code is 1 if there is any.
"""

import argparse
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the checkout's own package and the golden case list, installed or not
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden_cases  # noqa: E402

from pqclab.cli import main  # noqa: E402


def expected_files():
    """(path, text) for every input document, then every golden; the
    goldens are produced by running the CLI on the documents as they
    stand on disk."""
    for name, doc in golden_cases.data_documents().items():
        yield golden_cases.DATA_DIR / name, json.dumps(doc, indent=2) + "\n"

    for golden_name, argv in golden_cases.CASES:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(list(argv))
        if code != 0:
            raise SystemExit(f"{argv} exited with {code}; goldens must come from clean runs")
        yield golden_cases.GOLDEN_DIR / golden_name, buf.getvalue()


def run() -> None:
    golden_cases.DATA_DIR.mkdir(parents=True, exist_ok=True)
    golden_cases.GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for path, text in expected_files():
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")


def largest_delta(old, new, where=""):
    """The largest |old - new| over the numbers of two parsed JSON values or,
    when they differ in anything but numbers (a key, a length, a type, a
    string or a boolean), a str naming the first path where they do: keys in
    old's order, each value before the keys and length of its container."""
    at = where or "top level"
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return abs(old - new)
    if type(old) is not type(new):
        return f"{at}: {type(old).__name__} became {type(new).__name__}"
    if isinstance(old, dict):
        pairs = [(f"{where}.{k}" if where else k, old[k], new[k]) for k in old if k in new]
        shape = [f"key {k} removed" for k in old if k not in new]
        shape += [f"key {k} added" for k in new if k not in old]
        if list(old) != list(new):
            shape.append("keys reordered")
    elif isinstance(old, list):
        pairs = [(f"{where}[{i}]", a, b) for i, (a, b) in enumerate(zip(old, new))]
        shape = [f"length {len(old)} became {len(new)}"] if len(old) != len(new) else []
    else:
        return 0.0 if old == new else f"{at}: {old!r} became {new!r}"
    deltas = [largest_delta(a, b, here) for here, a, b in pairs]
    changed = [d for d in deltas if isinstance(d, str)] + [f"{at}: {s}" for s in shape]
    return changed[0] if changed else max(deltas, default=0.0)


def describe_drift(path: Path, text: str) -> str:
    """How the checked-in file at path differs from text."""
    if not path.is_file():
        return "missing"
    try:
        delta = largest_delta(json.loads(path.read_text(encoding="utf-8")), json.loads(text))
    except json.JSONDecodeError:
        return "not JSON"
    if isinstance(delta, str):
        return f"structure changed at {delta}"
    return f"numbers only, largest |delta| {delta:.3g}"


def check() -> int:
    drifted = []
    for path, text in expected_files():
        if not path.is_file() or path.read_text(encoding="utf-8") != text:
            drifted.append(path)
            print(f"drift {path}")
            print(f"  {describe_drift(path, text)}")
    print(f"{len(drifted)} file(s) would change")
    return 1 if drifted else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true", help="write nothing; list drifted files, exit 1 on drift"
    )
    if parser.parse_args().check:
        sys.exit(check())
    run()
