"""scripts/bench_pairs.py: its summary on fixed numbers, its pairing and its exit status."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH_PAIRS = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
METRICS = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
RUN = {"ops_per_s": 100.0, "op_ms.p50": 1.0, "op_ms.p90": 2.0, "setup_s": 0.1, "peak_rss_mb": 40.0}


@pytest.fixture
def pairs_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent_ops, change_ops, parent_rss, change_rss):
    return [
        ({"ops_per_s": po, "peak_rss_mb": pr}, {"ops_per_s": co, "peak_rss_mb": cr})
        for po, co, pr, cr in zip(parent_ops, change_ops, parent_rss, change_rss)
    ]


def test_summary_gives_quartiles_ratio_wins_and_unresolved(pairs_script):
    pairs = _pairs(
        [100, 110, 90, 105, 95], [120, 105, 95, 100, 110],
        [40, 50, 45, 60, 35], [39, 51, 45, 59, 34],
    )
    assert pairs_script.summarize(pairs, METRICS) == [
        "ops_per_s: parent 100 [95-105] -> change 105 (x1.050), change better in 3 of 5",
        "peak_rss_mb: parent 45 [40-50] -> change 45 (x1.000), change better in 3 of 5, "
        "unresolved (parent IQR 22% > bound 10%)",
    ]


def test_pairs_alternate_their_order_with_one_seed_each(pairs_script, monkeypatch, capsys):
    calls = []

    def fake_run(checkout, command, workload, seed, seconds):
        calls.append((checkout.name, seed, seconds))
        return RUN

    monkeypatch.setattr(pairs_script, "run_once", fake_run)
    argv = ["/p/parent", "/c/change", "--workload", "qubit_privacy", "--pairs", "3", "--seed", "7"]
    assert pairs_script.main(argv) == 0
    # every run lasts the benchmark's own run_seconds
    seconds = json.loads(pairs_script.BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]
    assert calls == [(side, seed, seconds) for side, seed in [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9), ("change", 9)]]
    out = capsys.readouterr().out
    assert "pairs: 3 of 3  seeds: 7-9" in out
    assert "ops_per_s: parent 100 [100-100] -> change 100 (x1.000), change better in 0 of 3" in out


def test_a_failed_run_fails_the_script(pairs_script, monkeypatch, capsys):
    results = iter([None] + [RUN] * 5)
    monkeypatch.setattr(pairs_script, "run_once", lambda *args: next(results))
    argv = ["p", "c", "--workload", "qubit_privacy", "--pairs", "3", "--seed", "1"]
    assert pairs_script.main(argv) == 1
    assert "pairs: 2 of 3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "code, accepted",
    [
        ("print(json.dumps({'correct': True, 'metrics': {'ops_per_s': {'value': 5.0}}}))", True),
        ("print(json.dumps({'correct': False, 'metrics': {}}))", False),
        ("print('no json'); sys.exit(0)", False),
        ("sys.exit(3)", False),
    ],
    ids=["correct", "incorrect", "no-result-line", "nonzero-exit"],
)
def test_a_run_counts_only_with_exit_0_and_correct_true(pairs_script, tmp_path, code, accepted):
    command = [sys.executable, "-c", f"import json, sys; {code}"]
    got = pairs_script.run_once(tmp_path, command, "qubit_privacy", 1, 1.0)
    assert got == ({"ops_per_s": 5.0} if accepted else None)
