"""Unit tests for the benchmark's own math (no simulation runs).

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import calc, report  # noqa: E402
from perfbench.tracing import Tracer, load_spans  # noqa: E402


# -- the percentile rule ----------------------------------------------------

def test_p95_needs_ten_samples_beyond():
    value, beyond, ok = calc.tail_percentile(list(range(1, 201)), 0.95)
    assert (value, beyond, ok) == (190, 10, True)
    value, beyond, ok = calc.tail_percentile(list(range(1, 200)), 0.95)
    assert (beyond, ok) == (9, False)


def test_nearest_rank_median_and_empty():
    assert calc.tail_percentile([5, 1, 3], 0.5)[0] == 3
    assert calc.tail_percentile([], 0.5) == (None, 0, False)
    assert calc.nearest_rank([7], 0.99) == (7, 0)


# -- self time --------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # root [0,10] -> a [1,4], b [5,9] -> c [6,7]; a second root [20,22]
    names = [0, 1, 1, 2, 0]
    parents = [-1, 0, 0, 2, -1]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0]
    ends = [10.0, 4.0, 9.0, 7.0, 22.0]
    self_s, total_s, calls = calc.self_times(names, parents, starts, ends, 3)
    assert self_s.tolist() == [3.0 + 2.0, 3.0 + 3.0, 1.0]
    assert total_s.tolist() == [12.0, 7.0, 1.0]
    assert calls.tolist() == [2, 2, 1]
    assert self_s.sum() == pytest.approx(total_s[0])


def test_tracer_records_nested_spans_per_process(tmp_path):
    tracer = Tracer(str(tmp_path))
    inner = tracer.wrap(lambda: 7, "inner")
    outer = tracer.wrap(lambda: inner() + inner(), "outer")
    assert outer() == 14
    tracer.flush()
    (proc,) = load_spans(str(tmp_path))
    assert proc["names"] == ["inner", "outer"]
    assert proc["parent"].tolist() == [-1, 0, 0]
    self_s, total_s, calls = calc.self_times(
        proc["name"], proc["parent"], proc["start"], proc["end"], 2)
    assert calls.tolist() == [2, 1]
    assert self_s[1] == pytest.approx(total_s[1] - total_s[0])


# -- digests ----------------------------------------------------------------

ROW = {"point_id": "inject/swaptions/20000/0/rate=0.0005", "index": 3,
       "ok": True, "metrics": {"cycles": 1.5, "detected": 1},
       "error": None, "elapsed_s": 0.25, "worker": 0}


def test_digest_ignores_bookkeeping_fields():
    moved = dict(ROW, elapsed_s=9.0, worker="runner1")
    assert calc.row_digest(moved) == calc.row_digest(ROW)


def test_digest_sees_every_result_field():
    for changed in (dict(ROW, index=4), dict(ROW, ok=False),
                    dict(ROW, metrics={"cycles": 1.5, "detected": 0}),
                    dict(ROW, error="boom")):
        assert calc.row_digest(changed) != calc.row_digest(ROW)


def test_bytes_digest_distinguishes_absent_artifact():
    assert calc.bytes_digest(None) is None
    assert calc.bytes_digest(b"{}") != calc.bytes_digest(b"{} ")


# -- sources ----------------------------------------------------------------

def _rows(*pairs):
    return [{"worker": w, "elapsed_s": e} for w, e in pairs]


def test_busiest_source_share():
    assert calc.busiest_source_share(_rows((0, 1), (0, 1), (0, 1),
                                           (1, 1))) == 0.75
    assert calc.busiest_source_share([]) == 0.0


def test_idle_source_scores_zero_busy():
    rows = _rows(("runner0", 1.0), ("runner0", 1.0))
    assert calc.source_busy_min(rows, sources=2, wall_s=4.0) == 0.0
    rows += _rows(("runner1", 1.0))
    assert calc.source_busy_min(rows, sources=2, wall_s=4.0) == 0.25


# -- host calibration -------------------------------------------------------

def test_calibration_kernel_is_fixed_work():
    assert calc.calibration_kernel(5000) == calc.calibration_kernel(5000)
    assert calc.host_slowness() > 0


def test_throughput_is_in_nominal_host_seconds():
    class Run:
        rows = [{"ok": True, "metrics": {"instructions": 100}}] * 4
        start, last_row = 0.0, 2.0
        slowness = 2.0  # the host ran at half speed: 2 s count as 1
    assert report.throughput([Run()]) == (4.0, 400.0, 4)


# -- report arithmetic ------------------------------------------------------

def test_simulated_stats_from_rows():
    class Run:
        rows = [{"ok": True, "metrics": {
            "instructions": 100, "cycles": 200, "injections": 2,
            "detected": 1, "latencies_ns": [10.0],
            "stall_cycles": {"little_core": 50}}}]
    sim = report.simulated([Run()])
    assert sim["sim_ipc"] == 0.5
    assert sim["detected_frac"] == 0.5
    assert sim["detect_latency_n"] == 1
    assert sim["core.controller.stall_cpi.little_core"] == 0.5
    assert sim["core.controller.stall_cpi.data_collecting"] == 0.0


def test_benchmark_json_matches_definitions():
    from perfbench.workloads import WORKLOADS
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == [tuple(m)
                                              for m in report.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [tuple(m)
                                             for m in report.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    assert max(len(w["why"]) for w in bench["workloads"]) <= 200
