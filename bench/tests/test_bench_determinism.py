"""Two traced rounds of one workload and seed do the same work.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402


def _traced_counts(name: str, seed: int, workdir: Path):
    workdir.mkdir()
    wl, _, warm_ok = run.open_workload(name, seed, workdir, in_process=True)
    phase, tr = run.trace_round(wl)
    assert warm_ok and phase.failed == 0
    calls = {fn: stats["calls"] for fn, stats in tr.summary().items()}
    return len(phase.latencies), calls


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_runs_repeat_their_counts(name, tmp_path):
    first = _traced_counts(name, 11, tmp_path / "a")
    second = _traced_counts(name, 11, tmp_path / "b")
    assert first[0] > 0
    assert first == second
