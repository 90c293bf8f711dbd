"""Tests of the benchmark itself.

Run from the repository root with ``PYTHONPATH=src python -m pytest
benchmarks/suite``. The two smoke tests run every workload end to end at
toy sizes; the rest feed synthetic inputs to the arithmetic.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
sys.path.insert(0, str(SUITE))

import compare  # noqa: E402
import loadgen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = ("fit_sbd", "query_cdtw", "serve_sbd", "swap_sbd")


def _smoke(tmp_path, *extra):
    out = tmp_path / "result.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(SUITE / "run.py"), "--smoke", "--out", str(out), *extra],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(out.read_text())["runs"], proc.stdout, elapsed


def test_smoke_end_to_end(tmp_path):
    last, runs, stdout, elapsed = _smoke(tmp_path)
    assert elapsed < 30
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert set(last["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    assert [r["workload"] for r in runs] == list(WORKLOADS)
    for run in runs:
        assert run["failed"] == 0 and run["correct"]
        assert list(run["metrics"]) == names
        for name, metric in run["metrics"].items():
            assert metric["value"] > 0 and metric["unit"]
            assert f"{name} = " in stdout
        env = run["env"]
        assert env["hardware_profile"] == "static, pinned" and env["cpu_count"] >= 1
        assert env["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"


def test_smoke_traced_spans_are_well_formed(tmp_path):
    last, runs, _, _ = _smoke(tmp_path, "--trace")
    assert last["correct"] is True and last["failed"] == 0
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    for run in runs:
        assert list(run["metrics"]) == per_layer
        assert run["absent"] == []
        lines = Path(run["spans_file"]).read_text().splitlines()
        recorded = [json.loads(line) for line in lines]
        assert recorded and all(r["workload"] == run["workload"] for r in recorded)
        by_sid = {r["sid"]: r for r in recorded}
        for r in recorded:
            assert r["end"] >= r["start"]
            if r["parent"] is not None:
                parent = by_sid[r["parent"]]
                assert parent["thread"] == r["thread"]
                assert parent["start"] <= r["start"] and r["end"] <= parent["end"]
        selfs = spans.self_times([Span(*(r[f] for f in Span._fields)) for r in recorded])
        assert min(selfs.values()) >= 0
        if run["workload"] == "swap_sbd":
            # Both halves swap, and the traced one records the swap's layers.
            assert run["diagnostics"]["swaps"] >= 1
            assert {"fleet.swap", "registry.load", "queue.close"} <= {r["name"] for r in recorded}
            assert run["metrics"]["swap.load_share"]["value"] > 0


# ------------------------------------------------------------ speed probe
def test_speed_probe_reads_and_is_waited_for():
    with probe.SpeedProbe() as speed:
        readings = [speed.time_ns() for _ in range(2)]
        process = speed._proc
    assert min(readings) > 0 and process.returncode == 0
    # Twice the probe time at the reference speed reads as twice the reference.
    scaled = probe.at_reference_speed([2e6, 4e6], [1e6, 2e6])
    assert scaled == pytest.approx([2 * probe.REFERENCE_MS * 1e6] * 2)


# ------------------------------------------------------------ self time
def _span(sid, start, end, parent=None, name="x", rid=None, count=None, key=None):
    return Span(sid, name, start, end, parent, 1, 0, rid, count, key)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        _span(0, 0, 100),
        _span(1, 10, 30, parent=0),
        _span(2, 20, 40, parent=0),  # overlaps its sibling: counted once
        _span(3, 35, 38, parent=2),
    ]
    selfs = spans.self_times(tree)
    assert selfs == {0: 100 - 30, 1: 20, 2: 20 - 3, 3: 3}
    assert spans.union_length([(0, 5), (3, 9), (20, 21), (7, 7)]) == 10


def test_closed_loop_shares_sum_to_one():
    tree = [
        _span(0, 0, 100, name="kshape.fit"),
        _span(1, 10, 70, parent=0, name="core.ncc"),
        _span(2, 100, 150, name="kshape.fit"),
        _span(3, 110, 120, parent=2, name="core.fft"),
    ]
    shares, roots = spans.closed_loop_breakdown(tree, "kshape.fit")
    assert roots == [100, 50]
    assert shares == pytest.approx({"kshape.fit": 80 / 150, "core.ncc": 60 / 150,
                                    "core.fft": 10 / 150})


# ------------------------------------------------------------ FIFO join
def test_fifo_join_assigns_requests_in_arrival_order():
    assert spans.fifo_join(6, [2, 3, 1]).tolist() == [0, 0, 1, 1, 1, 2]
    with pytest.raises(ValueError):
        spans.fifo_join(5, [2, 2])


def test_request_breakdown_splits_latency_exactly():
    # Two requests submitted to one queue, served by one batch of two.
    submit = [
        _span(0, 10, 12, name="queue.submit", rid=0, key=7),
        _span(1, 20, 23, name="queue.submit", rid=1, key=7),
        _span(2, 30, 50, name="predictor.predict_full", count=2, key=7),
        _span(3, 32, 44, parent=2, name="core.ncc"),
    ]
    due = np.array([5, 18])
    done = np.array([52, 53])
    bd = spans.request_breakdown(submit, due, done, [0, 1])
    assert bd["wait_ns"].tolist() == [30 - 12, 30 - 23]
    assert sum(bd["shares"].values()) == pytest.approx(1.0)
    total = (52 - 5) + (53 - 18)
    assert bd["shares"]["loadgen.late"] == pytest.approx((5 + 2) / total)
    assert bd["shares"]["core.ncc"] == pytest.approx(2 * 12 / total)
    assert bd["shares"]["queue.deliver"] == pytest.approx((2 + 3) / total)
    assert bd["batch_sizes"] == [2] and bd["busy_ns"] == 20


def test_tracer_reports_absent_names_and_restores_attributes():
    # Not ``import repro.core.kshape``: the package re-exports a function
    # of that name, which shadows the module attribute.
    kshape_module = importlib.import_module("repro.core.kshape")
    original = kshape_module.ncc_c_max_multi
    tracer = spans.Tracer("unit")
    tracer.install([
        spans.Target("core.ncc", "repro.core.kshape:ncc_c_max_multi"),
        spans.Target("gone", "repro.core.kshape:no_such_kernel"),
        spans.Target("gone", "repro.no_such_module:f"),
    ])
    try:
        assert tracer.absent == ["repro.core.kshape:no_such_kernel", "repro.no_such_module:f"]
        assert kshape_module.ncc_c_max_multi is not original
    finally:
        tracer.uninstall()
    assert kshape_module.ncc_c_max_multi is original


# ------------------------------------------------------------ ladder
def test_ladder_runs_through_the_gate_then_stops_at_the_first_failure():
    assert loadgen.GATE_RATE == 1500
    assert loadgen.next_rate(1500, passed=False) is None
    assert loadgen.next_rate(1500, passed=True) == 3000
    assert loadgen.next_rate(750, passed=False) == 1500  # below the gate: keep going
    assert loadgen.next_rate(24000, passed=True) is None
    assert loadgen.max_passing([(1500, True), (3000, True), (6000, False)]) == 3000
    assert loadgen.max_passing([(1500, False), (3000, False)]) == 0
    # Two batches of 32 are what a healthy queue holds; 1% more is allowed.
    assert loadgen.rung_passes(50.0, 64 + 120, 12000, max_batch=32)
    assert loadgen.rung_passes(10.0, 60, 1800, max_batch=32)
    assert not loadgen.rung_passes(50.1, 0, 12000, max_batch=32)
    assert not loadgen.rung_passes(10.0, 64 + 121, 12000, max_batch=32)


def test_poisson_due_times_are_seeded_and_bounded():
    a = loadgen.poisson_due_times(1000, 2.0, np.random.default_rng(3))
    b = loadgen.poisson_due_times(1000, 2.0, np.random.default_rng(3))
    assert np.array_equal(a, b) and np.all(np.diff(a) > 0) and a[-1] < 2.0
    assert 1800 < a.size < 2200


# ------------------------------------------------------------ compare
def _pairs(base, change):
    return list(zip(base, change))


def test_compare_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_iqr():
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    faster = [90.0, 91, 89, 90, 92, 88, 90, 91, 89, 90]
    v = compare.verdict(base, faster, _pairs(base, faster), "lower", 0.1)
    assert v["status"] == "gain" and v["wins"] == 10
    # Eight wins and two ties: ties count for neither side, so no gain.
    mixed = faster[:8] + base[8:]
    v = compare.verdict(base, mixed, _pairs(base, mixed), "lower", 0.1)
    assert v["wins"] == 8 and v["losses"] == 0 and v["status"] == "same"
    # Ten wins, but the gap is inside the change's own spread.
    wide = [95.0, 60, 98, 98, 97, 70, 96, 99.5, 80, 96]
    v = compare.verdict(base, wide, _pairs(base, wide), "lower", 0.5)
    assert v["wins"] == 10 and v["status"] == "same"


@pytest.mark.parametrize("n_pairs", [1, 9])
def test_compare_never_claims_a_gain_from_fewer_than_ten_pairs(n_pairs):
    base = [100.0, 101, 99, 100, 102, 98, 100, 101, 99][:n_pairs]
    faster = [b - 10 for b in base]
    v = compare.verdict(base, faster, _pairs(base, faster), "lower", 0.1)
    assert v["wins"] == n_pairs and v["status"] == "too few pairs"


def test_compare_marks_wide_spread_unresolved_and_flags_regressions():
    base = [100.0, 140, 70, 100, 130, 60, 100, 120, 80, 100]
    change = [110.0, 150, 75, 105, 140, 65, 115, 125, 85, 100]
    v = compare.verdict(base, change, _pairs(base, change), "lower", 0.1)
    assert v["status"] == "unresolved"
    slower = [v * 1.2 for v in [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]]
    steady = [100.0, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    v = compare.verdict(steady, slower, _pairs(steady, slower), "lower", 0.1)
    assert v["status"] == "regression"
    v = compare.verdict(steady, steady, _pairs(steady, steady), "lower", 0.1)
    assert v["status"] == "same" and v["wins"] == 0


def test_compare_requires_counts_to_match_exactly():
    def run(value):
        return {"seed": 0, "metrics": {"prune.full": {"value": value, "unit": "count"},
                                       "core.ncc_share": {"value": value, "unit": "share"}}}

    assert compare.count_mismatches([(run(5), run(5))]) == []
    assert compare.count_mismatches([(run(5), run(6))]) == ["prune.full"]
