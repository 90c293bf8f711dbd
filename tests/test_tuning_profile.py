"""HardwareProfile persistence: round-trips, corruption, and fallback.

The profile file is trusted the same way a model artifact is
(``repro.serving.artifacts``): schema-versioned, checksummed, fully
validated — and when any of that fails, the scheduler falls back to the
static constants rather than running on garbage numbers.
"""

import json

import numpy as np
import pytest

from repro.exceptions import (
    ProfileChecksumError,
    ProfileError,
    ProfileSchemaError,
    ReproError,
)
from repro.parallel import choose_backend, choose_tile_size, estimate_pair_cost_us
from repro.serving import MicroBatchQueue, ShapePredictor
from repro.serving.queue import DEFAULT_MAX_BATCH
from repro.tuning import (
    HardwareProfile,
    clear_active_profile,
    get_active_profile,
    load_profile,
    save_profile,
    use_profile,
)


def make_profile(**overrides) -> HardwareProfile:
    """A small, fully explicit profile (no timing runs needed)."""
    fields = dict(
        machine={"cpu_count": 4, "platform": "test", "python": "3.11"},
        overheads={
            "process_spawn_s": 0.05,
            "thread_spawn_s": 0.001,
            "shm_handoff_s_per_mb": 0.002,
            "fft_warmup_s": 0.0001,
            "tile_dispatch_us": 25.0,
        },
        pair_cost_us={
            "ed": {32: 1.0, 128: 3.0},
            "sbd": {32: 8.0, 128: 20.0},
            "dtw": {32: 150.0, 128: 2400.0},
            "cdtw": {32: 30.0, 128: 480.0},
        },
        serving={"max_batch": 64.0},
        calibration={"seed": 0, "reps": 3, "cdtw_band": 0.10},
    )
    fields.update(overrides)
    return HardwareProfile(**fields)


def _scheduling_decisions(profile):
    """Every decision the scheduler derives from a profile, as one tuple."""
    backends = tuple(
        choose_backend(n, m, metric, n_jobs=4, profile=profile)
        for n in (10, 80, 400)
        for m in (32, 64, 128)
        for metric in ("ed", "sbd", "dtw", "cdtw10", "msm")
    )
    tiles = tuple(
        choose_tile_size(n, n, 4, m=m, metric_key=metric, profile=profile)
        for n in (50, 300)
        for m in (32, 128)
        for metric in ("ed", "dtw")
    )
    costs = tuple(
        estimate_pair_cost_us(m, metric, profile=profile)
        for m in (16, 32, 90, 128, 512)
        for metric in ("ed", "sbd", "dtw", "cdtw5", "cdtw20", "sqed")
    )
    return backends, tiles, costs


# ---------------------------------------------------------------------------
# round-trip


def test_round_trip_preserves_checksum_and_decisions(tmp_path):
    profile = make_profile()
    path = save_profile(profile, tmp_path / "prof.json")
    loaded = load_profile(path)
    assert loaded.checksum() == profile.checksum()
    assert _scheduling_decisions(loaded) == _scheduling_decisions(profile)
    assert loaded.serving_max_batch == 64


def test_legacy_profile_with_flush_deadline_still_loads(tmp_path):
    """Profiles written before the deadline was dropped keep working."""
    legacy = make_profile(serving={"max_batch": 64.0, "max_latency_s": 0.004})
    path = save_profile(legacy, tmp_path / "legacy.json")
    payload = json.loads(path.read_text())
    assert payload["serving"] == {"max_batch": 64, "max_latency_s": 0.004}
    loaded = load_profile(path)  # checksum verifies over the old key too
    assert loaded.checksum() == payload["checksum"]
    assert loaded.serving_max_batch == 64
    with use_profile(loaded):
        queue = MicroBatchQueue(ShapePredictor(np.eye(3, 32)), autostart=False)
        assert queue.max_batch == 64
        queue.close()


def test_round_trip_queue_defaults_identical(tmp_path):
    profile = make_profile()
    loaded = load_profile(save_profile(profile, tmp_path / "prof.json"))
    predictor = ShapePredictor(np.eye(3, 32))
    policies = []
    for p in (profile, loaded):
        with use_profile(p):
            queue = MicroBatchQueue(predictor, autostart=False)
            policies.append(queue.max_batch)
            queue.close()
    assert policies[0] == policies[1] == 64


def test_pair_cost_interpolates_and_scales_bands():
    profile = make_profile()
    # Inside the bucket range: log-log interpolation is monotone here.
    mid = profile.pair_cost_for(64, "dtw")
    assert 150.0 < mid < 2400.0
    # Band scaling: cdtw5 is half the calibrated cdtw10 family cost.
    c10 = profile.pair_cost_for(64, "cdtw10")
    c5 = profile.pair_cost_for(64, "cdtw5")
    assert c5 == pytest.approx(0.5 * c10)
    # Unmeasured metric family -> caller falls back to static estimates.
    assert profile.pair_cost_for(64, "msm") is None
    assert estimate_pair_cost_us(64, "msm", profile=profile) == pytest.approx(
        estimate_pair_cost_us(64, "msm", profile=None)
    )


# ---------------------------------------------------------------------------
# corruption and schema drift -> typed errors


def test_missing_file_raises_profile_error(tmp_path):
    with pytest.raises(ProfileError, match="no hardware profile"):
        load_profile(tmp_path / "absent.json")


def test_invalid_json_raises_profile_error(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text("{not json")
    with pytest.raises(ProfileError, match="unreadable"):
        load_profile(path)


def test_corrupted_body_raises_checksum_error(tmp_path):
    path = save_profile(make_profile(), tmp_path / "prof.json")
    payload = json.loads(path.read_text())
    payload["overheads"]["process_spawn_s"] = 99.0  # tampered
    path.write_text(json.dumps(payload))
    with pytest.raises(ProfileChecksumError, match="checksum"):
        load_profile(path)


def test_missing_checksum_raises_profile_error(tmp_path):
    path = save_profile(make_profile(), tmp_path / "prof.json")
    payload = json.loads(path.read_text())
    del payload["checksum"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ProfileError, match="no checksum"):
        load_profile(path)


def test_schema_drift_raises_schema_error(tmp_path):
    path = save_profile(make_profile(), tmp_path / "prof.json")
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ProfileSchemaError, match="schema_version"):
        load_profile(path)


def test_wrong_kind_raises_profile_error(tmp_path):
    path = tmp_path / "prof.json"
    path.write_text(json.dumps({"kind": "something-else", "checksum": "x"}))
    with pytest.raises(ProfileError, match="not a hardware profile"):
        load_profile(path)


def test_size_mismatched_cost_table_raises_profile_error(tmp_path):
    truncated = make_profile(
        pair_cost_us={"ed": {32: 1.0, 128: 3.0}, "dtw": {128: 2400.0}}
    )
    path = save_profile(truncated, tmp_path / "prof.json")
    with pytest.raises(ProfileError, match="size-mismatched|at least 2"):
        load_profile(path)


def test_missing_overhead_raises_profile_error(tmp_path):
    path = save_profile(make_profile(), tmp_path / "prof.json")
    payload = json.loads(path.read_text())
    del payload["overheads"]["fft_warmup_s"]
    path.write_text(json.dumps(payload))
    # Structural validation runs before the checksum comparison.
    with pytest.raises(ProfileError, match="fft_warmup_s"):
        load_profile(path)


def test_profile_errors_are_repro_value_errors():
    for exc in (ProfileError, ProfileSchemaError, ProfileChecksumError):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, ValueError)
    assert issubclass(ProfileSchemaError, ProfileError)
    assert issubclass(ProfileChecksumError, ProfileError)


# ---------------------------------------------------------------------------
# fallback to static constants


def test_invalid_disk_profile_warns_once_and_falls_back(tmp_path, monkeypatch):
    path = save_profile(make_profile(), tmp_path / "prof.json")
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    monkeypatch.setenv("REPRO_HARDWARE_PROFILE", str(path))
    clear_active_profile()  # drop the test-suite override and disk cache
    try:
        with pytest.warns(RuntimeWarning, match="ignoring invalid"):
            assert get_active_profile() is None
        # The failed lookup is cached; no second warning, still static.
        assert get_active_profile() is None
        # Static decisions apply as if no profile existed.
        assert choose_backend(500, 128, "dtw", n_jobs=4) == "processes"
        predictor = ShapePredictor(np.eye(3, 32))
        queue = MicroBatchQueue(predictor, autostart=False)
        assert queue.max_batch == DEFAULT_MAX_BATCH
        queue.close()
    finally:
        clear_active_profile()


def test_env_var_disables_profiles(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    save_profile(make_profile(), tmp_path / "repro" / "hardware_profile.json")
    monkeypatch.setenv("REPRO_HARDWARE_PROFILE", "off")
    clear_active_profile()
    try:
        assert get_active_profile() is None
    finally:
        clear_active_profile()


def test_env_var_points_at_profile(tmp_path, monkeypatch):
    path = save_profile(make_profile(), tmp_path / "custom.json")
    monkeypatch.setenv("REPRO_HARDWARE_PROFILE", str(path))
    clear_active_profile()
    try:
        active = get_active_profile()
        assert active is not None
        assert active.serving_max_batch == 64
    finally:
        clear_active_profile()


def test_use_profile_nests_and_restores():
    outer, inner = make_profile(), make_profile(
        serving={"max_batch": 16.0}
    )
    with use_profile(outer):
        assert get_active_profile() is outer
        with use_profile(inner):
            assert get_active_profile() is inner
        assert get_active_profile() is outer
    # Back to the suite-wide "static constants" override.
    assert get_active_profile() is None
