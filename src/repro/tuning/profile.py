"""The measured :class:`HardwareProfile` and its persistence/activation.

The parallel engine's cost model and the serving queue's batching policy
both need numbers that depend on the machine they run on: how many
microseconds one DTW pair costs here, how long a process pool takes to
spawn, how fast the batched SBD kernel amortizes. The static constants in
:mod:`repro.parallel.chunking` are educated guesses calibrated on one
development box — BENCH_parallel showed them *turning parallelism into a
slowdown* on a 1-core CI machine. A :class:`HardwareProfile` replaces the
guesses with measurements taken by :func:`repro.tuning.calibrate` on the
current hardware.

A profile is a single JSON document with

* a ``schema_version`` (unsupported versions raise
  :class:`~repro.exceptions.ProfileSchemaError`),
* a SHA-256 ``checksum`` over the canonical body (corruption raises
  :class:`~repro.exceptions.ProfileChecksumError`),
* structural validation of every field (anything malformed — wrong types,
  empty or single-bucket cost tables, non-finite numbers — raises
  :class:`~repro.exceptions.ProfileError`),

mirroring the :mod:`repro.serving.artifacts` trust model: a profile that
cannot be fully validated is *ignored*, and every consumer falls back to
the documented static constants. Timings stored here influence only
**scheduling decisions** (backend, worker count, tile size, micro-batch
shape) — never numeric results, which are bit-identical with and without a
profile.

Activation: consumers call :func:`get_active_profile`, which resolves (and
caches) the first of

1. an explicit :func:`set_active_profile` override (``None`` forces the
   static constants; :func:`use_profile` scopes an override to a block),
2. the file named by the ``REPRO_HARDWARE_PROFILE`` environment variable
   (the values ``off``/``none``/``0`` disable profiles entirely),
3. ``$XDG_CACHE_HOME/repro/hardware_profile.json`` (or
   ``~/.cache/repro/hardware_profile.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from ..exceptions import ProfileChecksumError, ProfileError, ProfileSchemaError

__all__ = [
    "PROFILE_SCHEMA_VERSION",
    "PROFILE_KIND",
    "ENV_PROFILE_PATH",
    "HardwareProfile",
    "save_profile",
    "load_profile",
    "default_profile_path",
    "get_active_profile",
    "set_active_profile",
    "clear_active_profile",
    "use_profile",
]

PROFILE_SCHEMA_VERSION = 1
PROFILE_KIND = "repro-hardware-profile"

#: Environment variable naming the profile file; ``off``/``none``/``0``
#: (or empty) disable profile loading entirely.
ENV_PROFILE_PATH = "REPRO_HARDWARE_PROFILE"

_DISABLING_VALUES = {"", "0", "off", "none", "disabled"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProfileError(message)


def _as_finite_positive(value: object, label: str) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"profile field {label} must be a number, got {value!r}",
    )
    number = float(value)  # type: ignore[arg-type]
    _require(
        math.isfinite(number) and number > 0.0,
        f"profile field {label} must be finite and > 0, got {number!r}",
    )
    return number


def _loglog_interp(m: int, buckets: Dict[int, float]) -> float:
    """Interpolate a pair cost at length ``m`` from measured buckets.

    Piecewise-linear in log-log space (kernel costs are polynomial in
    ``m``, so straight lines between measured points track the true curve
    well); beyond the measured range the end-segment slope extrapolates.
    """
    points = sorted(buckets.items())
    if len(points) == 1:
        return points[0][1]
    x = math.log(max(m, 1))
    xs = [math.log(b) for b, _ in points]
    ys = [math.log(c) for _, c in points]
    if x <= xs[0]:
        lo, hi = 0, 1
    elif x >= xs[-1]:
        lo, hi = len(points) - 2, len(points) - 1
    else:
        hi = next(i for i, xv in enumerate(xs) if xv >= x)
        lo = hi - 1
    slope = (ys[hi] - ys[lo]) / (xs[hi] - xs[lo])
    return math.exp(ys[lo] + slope * (x - xs[lo]))


@dataclass(frozen=True)
class HardwareProfile:
    """Measured scheduling parameters for one machine.

    Attributes
    ----------
    machine:
        ``cpu_count``, platform and interpreter identifiers — recorded so
        a profile copied between machines is recognizably foreign.
    overheads:
        Measured fixed costs (seconds unless suffixed otherwise):
        ``process_spawn_s``, ``thread_spawn_s``, ``shm_handoff_s_per_mb``,
        ``fft_warmup_s``, ``tile_dispatch_us``.
    pair_cost_us:
        Per metric *family* (``ed``/``sbd``/``dtw``/``cdtw``/…), measured
        microseconds per distance evaluation at each calibrated
        series-length bucket; :meth:`pair_cost_for` interpolates between
        buckets.
    serving:
        Micro-batch policy derived from the measured batched-kernel cost
        curve: ``max_batch`` (plus the raw fit,
        ``kernel_base_s``/``kernel_per_item_s``, for inspection). Other
        numeric keys, such as the flush deadline older calibrations
        wrote, are kept so the checksum still verifies, and are unused.
    calibration:
        Provenance: seed, repetitions, quick flag, calibrated lengths and
        the cDTW band fraction the ``cdtw`` family was measured at.
    """

    machine: Dict[str, Any]
    overheads: Dict[str, float]
    pair_cost_us: Dict[str, Dict[int, float]]
    serving: Dict[str, float]
    calibration: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = PROFILE_SCHEMA_VERSION

    # ---------------------------------------------------------------- costs
    @property
    def cpu_count(self) -> int:
        return int(self.machine.get("cpu_count", 1))

    def pair_cost_for(self, m: int, metric_key: Optional[str]) -> Optional[float]:
        """Measured microseconds per pair at length ``m``, or ``None``.

        ``None`` means the profile has no measurement for this metric and
        the caller should use its static fallback estimate. ``cdtwXX``
        requests are served from the calibrated ``cdtw`` family scaled by
        the ratio of band fractions (band cost is ~linear in the band).
        """
        if not metric_key:
            return None
        key = metric_key.lower()
        scale = 1.0
        if key == "sqed":
            key = "ed"
        elif key.startswith("cdtw") and key != "cdtw":
            try:
                frac = float(key[4:]) / 100.0
            except ValueError:
                frac = 0.10
            ref = float(self.calibration.get("cdtw_band", 0.10))
            scale = max(frac / ref, 0.05) if ref > 0 else 1.0
            key = "cdtw"
        table = self.pair_cost_us.get(key)
        if not table:
            return None
        return _loglog_interp(int(m), table) * scale

    #: Spawning a pool only pays off once the serial cost comfortably
    #: exceeds the measured spawn overhead; below ~4x the pool's fixed
    #: cost the best case (perfect scaling on 2 workers) is a wash.
    _SPAWN_AMORTIZATION = 4.0

    @property
    def min_thread_cost_s(self) -> float:
        """Serial cost below which a thread pool is not worth starting."""
        return max(
            self._SPAWN_AMORTIZATION * self.overheads["thread_spawn_s"], 1e-3
        )

    @property
    def min_process_cost_s(self) -> float:
        """Serial cost below which a process pool is not worth starting."""
        return max(
            self._SPAWN_AMORTIZATION * self.overheads["process_spawn_s"], 0.02
        )

    @property
    def tile_dispatch_us(self) -> float:
        return self.overheads["tile_dispatch_us"]

    @property
    def serving_max_batch(self) -> int:
        return int(self.serving["max_batch"])

    # ------------------------------------------------------------ (de)code
    def body_dict(self) -> Dict[str, Any]:
        """The canonical JSON body (everything but the checksum)."""
        return {
            "kind": PROFILE_KIND,
            "schema_version": self.schema_version,
            "machine": dict(self.machine),
            "overheads": dict(self.overheads),
            "pair_cost_us": {
                family: {str(m): cost for m, cost in sorted(table.items())}
                for family, table in sorted(self.pair_cost_us.items())
            },
            "serving": {
                key: (int(value) if key == "max_batch" else value)
                for key, value in self.serving.items()
            },
            "calibration": dict(self.calibration),
        }

    def checksum(self) -> str:
        return _body_checksum(self.body_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HardwareProfile":
        """Validate a decoded JSON document into a profile.

        Raises :class:`~repro.exceptions.ProfileSchemaError` for an
        unsupported ``schema_version``, :class:`~repro.exceptions.ProfileError`
        for any structural problem. Checksum verification happens in
        :func:`load_profile` (an in-memory dict has no bytes to trust).
        """
        _require(isinstance(payload, Mapping), "profile must be a JSON object")
        _require(
            payload.get("kind") == PROFILE_KIND,
            f"not a hardware profile (kind={payload.get('kind')!r})",
        )
        version = payload.get("schema_version")
        if not isinstance(version, int) or version != PROFILE_SCHEMA_VERSION:
            raise ProfileSchemaError(
                f"unsupported hardware-profile schema_version {version!r}; "
                f"this build reads version {PROFILE_SCHEMA_VERSION} — "
                "re-run `python -m repro.tuning calibrate`"
            )
        machine = payload.get("machine")
        _require(isinstance(machine, Mapping), "profile: machine must be an object")
        cpu = machine.get("cpu_count")  # type: ignore[union-attr]
        _require(
            isinstance(cpu, int) and cpu >= 1,
            f"profile: machine.cpu_count must be an int >= 1, got {cpu!r}",
        )

        overheads_raw = payload.get("overheads")
        _require(
            isinstance(overheads_raw, Mapping),
            "profile: overheads must be an object",
        )
        overheads: Dict[str, float] = {}
        for name in (
            "process_spawn_s",
            "thread_spawn_s",
            "shm_handoff_s_per_mb",
            "fft_warmup_s",
            "tile_dispatch_us",
        ):
            _require(
                name in overheads_raw,  # type: ignore[operator]
                f"profile: overheads.{name} is missing",
            )
            overheads[name] = _as_finite_positive(
                overheads_raw[name], f"overheads.{name}"  # type: ignore[index]
            )

        costs_raw = payload.get("pair_cost_us")
        _require(
            isinstance(costs_raw, Mapping) and len(costs_raw) > 0,  # type: ignore[arg-type]
            "profile: pair_cost_us must be a non-empty object",
        )
        pair_cost_us: Dict[str, Dict[int, float]] = {}
        for family, table in costs_raw.items():  # type: ignore[union-attr]
            _require(
                isinstance(family, str) and isinstance(table, Mapping),
                f"profile: pair_cost_us[{family!r}] must be an object",
            )
            buckets: Dict[int, float] = {}
            for raw_m, raw_cost in table.items():
                try:
                    m = int(raw_m)
                except (TypeError, ValueError):
                    raise ProfileError(
                        f"profile: pair_cost_us[{family!r}] bucket {raw_m!r} "
                        "is not an integer series length"
                    ) from None
                _require(
                    m >= 1,
                    f"profile: pair_cost_us[{family!r}] bucket {m} must be >= 1",
                )
                buckets[m] = _as_finite_positive(
                    raw_cost, f"pair_cost_us[{family!r}][{m}]"
                )
            _require(
                len(buckets) >= 2,
                f"profile: pair_cost_us[{family!r}] has {len(buckets)} "
                "length bucket(s); at least 2 are required to interpolate "
                "(size-mismatched or truncated table?)",
            )
            pair_cost_us[family] = buckets

        serving_raw = payload.get("serving")
        _require(isinstance(serving_raw, Mapping), "profile: serving must be an object")
        serving: Dict[str, float] = {}
        max_batch = serving_raw.get("max_batch")  # type: ignore[union-attr]
        _require(
            isinstance(max_batch, int) and max_batch >= 1,
            f"profile: serving.max_batch must be an int >= 1, got {max_batch!r}",
        )
        serving["max_batch"] = float(max_batch)
        for extra_key, extra_value in serving_raw.items():  # type: ignore[union-attr]
            if extra_key not in serving and isinstance(extra_value, (int, float)):
                serving[str(extra_key)] = float(extra_value)

        calibration_raw = payload.get("calibration", {})
        _require(
            isinstance(calibration_raw, Mapping),
            "profile: calibration must be an object",
        )
        return cls(
            machine=dict(machine),  # type: ignore[arg-type]
            overheads=overheads,
            pair_cost_us=pair_cost_us,
            serving=serving,
            calibration=dict(calibration_raw),  # type: ignore[arg-type]
            schema_version=version,
        )


def _body_checksum(body: Dict[str, Any]) -> str:
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# persistence


def default_profile_path() -> Path:
    """Where the active profile lives unless explicitly overridden."""
    env = os.environ.get(ENV_PROFILE_PATH)
    if env is not None and env.strip().lower() not in _DISABLING_VALUES:
        return Path(env).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(cache_home) / "repro" / "hardware_profile.json"


def profiles_disabled() -> bool:
    """True when ``REPRO_HARDWARE_PROFILE`` explicitly disables profiles."""
    env = os.environ.get(ENV_PROFILE_PATH)
    return env is not None and env.strip().lower() in _DISABLING_VALUES


def save_profile(
    profile: HardwareProfile, path: Union[str, Path, None] = None
) -> Path:
    """Write ``profile`` (with its checksum) as JSON; returns the path."""
    target = Path(path) if path is not None else default_profile_path()
    target.parent.mkdir(parents=True, exist_ok=True)
    body = profile.body_dict()
    body["checksum"] = _body_checksum(profile.body_dict())
    target.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return target


def load_profile(path: Union[str, Path, None] = None) -> HardwareProfile:
    """Read, checksum-verify, and validate a profile file.

    Raises
    ------
    ProfileError
        Missing file, invalid JSON, or structural problems.
    ProfileSchemaError
        Unsupported ``schema_version``.
    ProfileChecksumError
        The recorded checksum does not match the body.
    """
    source = Path(path) if path is not None else default_profile_path()
    if not source.is_file():
        raise ProfileError(f"no hardware profile at {source}")
    try:
        payload = json.loads(source.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ProfileError(f"unreadable hardware profile {source}: {exc}") from exc
    _require(isinstance(payload, dict), "profile must be a JSON object")
    recorded = payload.pop("checksum", None)
    _require(
        isinstance(recorded, str),
        "profile has no checksum field (truncated write?)",
    )
    profile = HardwareProfile.from_dict(payload)
    actual = profile.checksum()
    if actual != recorded:
        raise ProfileChecksumError(
            f"hardware profile {source} failed checksum verification "
            f"(recorded {recorded[:12]}…, computed {actual[:12]}…)"
        )
    return profile


# ---------------------------------------------------------------------------
# the active profile


class _Unset:
    """Sentinel distinguishing 'no override' from an explicit ``None``."""


_UNSET = _Unset()
_lock = threading.Lock()
_override: Union[_Unset, Optional[HardwareProfile]] = _UNSET
_disk_cache: Union[_Unset, Optional[HardwareProfile]] = _UNSET


def get_active_profile() -> Optional[HardwareProfile]:
    """The profile scheduling decisions should use, or ``None``.

    ``None`` means "use the static fallback constants". The disk lookup
    runs at most once per process (per :func:`clear_active_profile`); an
    invalid file warns once and behaves as if absent.
    """
    global _disk_cache
    with _lock:
        if not isinstance(_override, _Unset):
            return _override
        if not isinstance(_disk_cache, _Unset):
            return _disk_cache
    resolved: Optional[HardwareProfile] = None
    if not profiles_disabled():
        path = default_profile_path()
        if path.is_file():
            try:
                resolved = load_profile(path)
            except ProfileError as exc:
                warnings.warn(
                    f"ignoring invalid hardware profile {path}: {exc}; "
                    "scheduling falls back to the static cost model "
                    "(re-run `python -m repro.tuning calibrate`)",
                    RuntimeWarning,
                    stacklevel=2,
                )
    with _lock:
        _disk_cache = resolved
    return resolved


def set_active_profile(profile: Optional[HardwareProfile]) -> None:
    """Override the active profile for this process.

    ``None`` forces the static constants (it does *not* re-enable disk
    discovery — use :func:`clear_active_profile` for that).
    """
    global _override
    with _lock:
        _override = profile


def clear_active_profile() -> None:
    """Drop any override *and* the disk cache; next call re-resolves."""
    global _override, _disk_cache
    with _lock:
        _override = _UNSET
        _disk_cache = _UNSET


@contextmanager
def use_profile(profile: Optional[HardwareProfile]) -> Iterator[Optional[HardwareProfile]]:
    """Scope an active-profile override to a ``with`` block (reentrant)."""
    global _override
    with _lock:
        previous = _override
        _override = profile
    try:
        yield profile
    finally:
        with _lock:
            _override = previous
