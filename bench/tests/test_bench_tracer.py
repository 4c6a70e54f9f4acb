"""Self-time arithmetic and span nesting of the benchmark tracer.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import tracer  # noqa: E402
from pqclab import channels, condexp  # noqa: E402


def test_self_time_on_a_synthetic_span_tree():
    # [name, op id, parent, start, end]
    spans = [
        [0, 0, -1, 0.0, 10.0],  # root
        [1, 0, 0, 1.0, 3.0],  # child overlapping the next one
        [1, 0, 0, 2.0, 4.0],  # the two children cover [1, 4] once
        [2, 0, 1, 1.5, 2.0],  # grandchild: charged to the first child only
        [1, 0, 0, 8.0, 12.0],  # child sticking out: only [8, 10] is covered
        [3, 1, -1, 20.0, 21.0],  # a second op's root without children
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 1.5, 2.0, 0.5, 4.0, 1.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert tracer.self_times([[0, 0, -1, 2.0, 2.25]]) == [0.25]


def test_nested_calls_are_recorded_and_originals_restored():
    is_pqc, apply_matrix = condexp.is_pqc, channels.Channel.apply_matrix
    ch = channels.from_kraus([np.eye(2)])
    rho0 = channels.DensityOperator(np.eye(2) / 2)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.op_start()
        inst = condexp.PQCInstance((np.array([1.0, 0.0]),), ch, rho0)
        assert not condexp.is_pqc(inst).verdict
        tr.op_end()
    finally:
        tr.uninstall()
    assert condexp.is_pqc is is_pqc
    assert channels.Channel.apply_matrix is apply_matrix

    summary = tr.summary()
    assert summary["condexp.is_pqc"]["calls"] == 1
    assert summary["condexp.PQCInstance"]["calls"] == 1
    assert summary["channels.Channel.apply_matrix"]["calls"] == 1
    assert summary["linalg.partial_trace"]["calls"] == 0
    names = [tr.names[s[0]] for s in tr.spans]
    pqc = names.index("condexp.is_pqc")
    child = tr.spans[names.index("channels.Channel.apply_matrix")]
    assert child[2] == pqc  # apply_matrix ran inside is_pqc
    assert all(s[1] == 0 for s in tr.spans)  # one op id for the whole op
    total = tr.spans[pqc][4] - tr.spans[pqc][3]
    assert 0.0 <= summary["condexp.is_pqc"]["self_s"] <= total
