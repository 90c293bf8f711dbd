"""Calibration: deterministic plan, valid output, numeric equivalence.

The deterministic-mode guard of the autotuner: calibration runs a
fixed-seed, fixed-repetition measurement plan, and the resulting profile
steers *scheduling only* — matrices, labels, and served predictions are
bit-identical with and without an active profile.
"""

import json

import numpy as np
import pytest

from repro.datasets import make_cbf
from repro.distances import pairwise_distances
from repro.parallel import resolve_backend
from repro.preprocessing import zscore
from repro.serving import MicroBatchQueue, ShapePredictor
from repro.tuning import CalibrationOptions, HardwareProfile, calibrate, use_profile
from repro.tuning import cli

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def quick_profile():
    """One quick calibration shared by the module (it times real kernels)."""
    return calibrate(quick=True)


def test_quick_calibration_structure(quick_profile):
    p = quick_profile
    assert isinstance(p, HardwareProfile)
    assert set(p.overheads) == {
        "process_spawn_s",
        "thread_spawn_s",
        "shm_handoff_s_per_mb",
        "fft_warmup_s",
        "tile_dispatch_us",
    }
    assert all(value > 0 for value in p.overheads.values())
    options = CalibrationOptions.quick_options()
    # cdtw10 is measured into the "cdtw" family.
    assert set(p.pair_cost_us) == {"ed", "sbd", "dtw", "cdtw"}
    for table in p.pair_cost_us.values():
        assert sorted(table) == sorted(options.lengths)
        assert all(cost > 0 for cost in table.values())
    assert p.cpu_count >= 1
    assert p.serving_max_batch >= 1


def test_calibration_plan_is_deterministic(quick_profile):
    """Same seed, same plan: only the clock readings may differ."""
    again = calibrate(quick=True)
    assert again.calibration == quick_profile.calibration
    assert set(again.pair_cost_us) == set(quick_profile.pair_cost_us)
    for family in again.pair_cost_us:
        assert sorted(again.pair_cost_us[family]) == sorted(
            quick_profile.pair_cost_us[family]
        )
    # max_batch comes from a fixed candidate set including the default.
    candidates = set(CalibrationOptions.quick_options().serving_batches) | {32}
    assert again.serving_max_batch in candidates
    assert quick_profile.serving_max_batch in candidates


def test_calibration_options_roundtrip_into_provenance(quick_profile):
    options = CalibrationOptions.quick_options()
    recorded = quick_profile.calibration
    assert recorded["seed"] == options.seed
    assert recorded["reps"] == options.reps
    assert recorded["quick"] is True
    assert tuple(recorded["lengths"]) == options.lengths
    assert recorded["cdtw_band"] == pytest.approx(0.10)


def test_serving_policy_never_looser_than_static(quick_profile):
    # The batch cap is measured against candidates that include the static
    # default (see _measure_serving) and ships with its cost fit.
    assert quick_profile.serving["kernel_per_item_s"] > 0


def test_calibration_writes_no_flush_deadline(quick_profile):
    assert set(quick_profile.serving) == {
        "max_batch",
        "kernel_base_s",
        "kernel_per_item_s",
    }


def test_cli_reports_no_flush_deadline(quick_profile, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "calibrate", lambda options: quick_profile)
    path = tmp_path / "profile.json"
    assert cli.main(["calibrate", "--quick", "--out", str(path)]) == 0
    summary = capsys.readouterr().out
    assert f"serving max_batch={quick_profile.serving_max_batch}" in summary
    assert "max_latency" not in summary
    assert cli.main(["show", "--path", str(path)]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert "max_latency_s" not in shown["serving"]
    assert shown["checksum"] == quick_profile.checksum()


# ---------------------------------------------------------------------------
# numeric equivalence: profiles steer scheduling, never numerics


def _dataset(n=40, m=64):
    X, y = make_cbf(max(n // 3, 1), m, np.random.default_rng(5))
    return zscore(X[:n])


@pytest.mark.parametrize("metric", ("sbd", "dtw"))
def test_matrices_bit_identical_calibrated_vs_uncalibrated(
    quick_profile, metric
):
    X = _dataset()
    with use_profile(None):
        static = pairwise_distances(X, metric, n_jobs=2)
    with use_profile(quick_profile):
        measured = pairwise_distances(X, metric, n_jobs=2)
    assert np.array_equal(static, measured)


def test_served_predictions_bit_identical(quick_profile):
    X = _dataset(n=50, m=64)
    centroids = zscore(np.cumsum(np.eye(3, 64), axis=1))
    predictor = ShapePredictor(centroids, metric="sbd")
    results = []
    for profile in (None, quick_profile):
        with use_profile(profile):
            with MicroBatchQueue(predictor, autostart=False) as queue:
                futures = [queue.submit(x) for x in X]
                queue.flush()
                results.append([f.result() for f in futures])
    assert results[0] == results[1]


def test_profile_changes_scheduling_inputs_only(quick_profile):
    """The profile is consulted for decisions, not for kernel outputs."""
    decision_static = resolve_backend(200, 200, 128, "dtw", 4, None, True, profile=None)
    decision_measured = resolve_backend(
        200, 200, 128, "dtw", 4, None, True, profile=quick_profile
    )
    # Decisions are strings/ints — both are valid schedules; equality is
    # machine-dependent and NOT asserted. What matters: both configs
    # produce the same matrix (covered above) and the decision derives
    # from the persisted profile when present.
    assert decision_static[0] in ("serial", "threads", "processes")
    assert decision_measured[0] in ("serial", "threads", "processes")
