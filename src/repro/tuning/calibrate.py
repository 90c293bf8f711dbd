"""Micro-calibration: measure this machine, emit a :class:`HardwareProfile`.

Each measurement targets one quantity the scheduler actually consumes:

* **per-pair kernel cost** — for each metric family and series-length
  bucket, time the *same tile kernel the engine runs*
  (:func:`repro.parallel.kernels.compute_tile` over a full symmetric
  tile, so batched wavefront routing and FFT plans are in play) and
  divide by the number of pairs;
* **executor spawn/IPC overhead** — round-trip a no-op through a fresh
  thread pool and a fresh one-worker process pool;
* **shared-memory hand-off** — copy-in/attach/tear-down of a ~1 MiB
  dataset through :mod:`repro.parallel.shared`, per MiB;
* **FFT-cache warm-up** — a cold :class:`~repro.parallel.fft_cache.SBDPlanCache`
  plan for a reference dataset;
* **tile dispatch** — per-tile bookkeeping cost of the serial tile loop,
  from a sweep of single-cell ED tiles;
* **serving batch curve** — batched :class:`~repro.serving.ShapePredictor`
  cost at several batch sizes (the static default is always a candidate);
  the micro-batch queue's ``max_batch`` is the measured per-item-cost
  optimum, and the linear ``base + per_item·b`` fit is kept for
  inspection.

Determinism guard: all synthetic inputs come from a seeded generator and
the repetition counts are fixed by :class:`CalibrationOptions`, so a
calibration run's *dataflow* is reproducible; the recorded timings vary
with the machine, but they only ever steer scheduling — numeric results
are bit-identical with and without a profile (equivalence-tested in
``tests/test_tuning_calibrate.py``).
"""

from __future__ import annotations

import math
import os
import platform
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..parallel.chunking import Tile
from ..parallel.fft_cache import SBDPlanCache
from ..parallel.kernels import compute_tile, make_state
from ..parallel.shared import attach_array, share_array
from ..preprocessing import zscore
from .profile import PROFILE_SCHEMA_VERSION, HardwareProfile

__all__ = ["CalibrationOptions", "calibrate"]

#: cDTW band fraction the ``cdtw`` family is measured at; other bands are
#: served by linear band scaling in :meth:`HardwareProfile.pair_cost_for`.
CDTW_BAND = 0.10


@dataclass(frozen=True)
class CalibrationOptions:
    """Fixed-seed, fixed-repetition measurement plan.

    ``seed`` drives every synthetic input; ``reps`` is the exact number of
    timing repetitions per quantity (the minimum is kept, the standard
    micro-benchmark noise filter). Together they make a calibration run's
    dataflow reproducible — only the clock readings differ between runs.
    """

    seed: int = 0
    reps: int = 3
    lengths: Tuple[int, ...] = (64, 128, 256)
    metrics: Tuple[str, ...] = ("ed", "sbd", "dtw", "cdtw10", "msm")
    n_series: int = 12
    serving_batches: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)
    quick: bool = False

    @classmethod
    def quick_options(cls, seed: int = 0) -> "CalibrationOptions":
        """A CI-sized plan: two length buckets, two repetitions."""
        return cls(
            seed=seed,
            reps=2,
            lengths=(32, 64),
            metrics=("ed", "sbd", "dtw", "cdtw10"),
            n_series=8,
            serving_batches=(1, 8, 32, 64),
            quick=True,
        )


def _best_of(fn: Callable[[], None], reps: int) -> float:
    """Minimum wall-clock of ``reps`` runs of ``fn`` (seconds)."""
    best = math.inf
    for _ in range(max(reps, 1)):
        tick = perf_counter()
        fn()
        best = min(best, perf_counter() - tick)
    return best


def _sample(rng: np.random.Generator, n: int, m: int) -> np.ndarray:
    return zscore(rng.standard_normal((n, m)))


def _measure_pair_costs(
    options: CalibrationOptions, rng: np.random.Generator
) -> Dict[str, Dict[int, float]]:
    tables: Dict[str, Dict[int, float]] = {}
    for metric in options.metrics:
        family = "cdtw" if metric.startswith("cdtw") else metric
        table: Dict[int, float] = {}
        for m in options.lengths:
            X = _sample(rng, options.n_series, m)
            n = X.shape[0]
            pairs = n * (n - 1) // 2
            tile = Tile(0, n, 0, n, diagonal=True)

            def run(
                X: np.ndarray = X, metric: str = metric, tile: Tile = tile
            ) -> None:
                state = make_state(X, X, metric, skip_diagonal=True)
                compute_tile(state, tile)

            run()  # warm numpy/FFT code paths outside the timed region
            best = _best_of(run, options.reps)
            table[m] = max(best / pairs * 1e6, 1e-3)
        tables[family] = table
    return tables


def _noop(value: int) -> int:
    """Module-level no-op, picklable for the process-pool round-trip."""
    return value


def _measure_thread_spawn(reps: int) -> float:
    def run() -> None:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(_noop, range(2)))

    run()
    return max(_best_of(run, reps), 1e-6)


def _measure_process_spawn(reps: int) -> float:
    import multiprocessing as mp

    ctx = mp.get_context()

    def run() -> None:
        with ctx.Pool(processes=1) as pool:
            pool.map(_noop, range(1))

    try:
        return max(_best_of(run, max(reps, 1)), 1e-5)
    except (OSError, RuntimeError):  # pragma: no cover - constrained envs
        # Process pools unavailable (sandboxes without /dev/shm or fork):
        # report an effectively infinite spawn cost so the cost model
        # never selects the backend that cannot run here.
        return 3600.0


def _measure_shm_handoff(reps: int, rng: np.random.Generator) -> float:
    X = rng.standard_normal((1024, 128))  # 1 MiB of float64
    mib = X.nbytes / (1024.0 * 1024.0)

    def run() -> None:
        shm, spec = share_array(X)
        try:
            worker_shm, view = attach_array(spec)
            float(view[0, 0])
            worker_shm.close()
        finally:
            shm.close()
            shm.unlink()

    try:
        return max(_best_of(run, reps) / mib, 1e-6)
    except OSError:  # pragma: no cover - no shared memory in this env
        return 3600.0


def _measure_fft_warmup(reps: int, rng: np.random.Generator) -> float:
    X = _sample(rng, 64, 128)

    def run() -> None:
        SBDPlanCache().plan_for("A", X)

    run()
    return max(_best_of(run, reps), 1e-7)


def _measure_tile_dispatch(reps: int, rng: np.random.Generator) -> float:
    X = _sample(rng, 64, 32)
    tiles = [Tile(i, i + 1, j, j + 1, diagonal=False) for i in range(20) for j in range(10)]

    def run() -> None:
        state = make_state(X, X, "ed", skip_diagonal=False)
        for tile in tiles:
            compute_tile(state, tile)

    run()
    best = _best_of(run, reps)
    return max(best / len(tiles) * 1e6, 1e-2)


def _fit_serving_curve(
    batches: Sequence[int], costs: Sequence[float]
) -> Tuple[float, float]:
    """Least-squares ``cost ≈ base + per_item * b`` (both clamped >= 0)."""
    b = np.asarray(batches, dtype=np.float64)
    c = np.asarray(costs, dtype=np.float64)
    per_item, base = np.polyfit(b, c, 1)
    return max(float(base), 0.0), max(float(per_item), 1e-9)


def _measure_serving(
    options: CalibrationOptions, rng: np.random.Generator
) -> Dict[str, float]:
    from ..serving.predictor import ShapePredictor

    m, k = 128, 4
    centroids = _sample(rng, k, m)
    predictor = ShapePredictor(centroids, metric="sbd")
    # The static queue default is always among the candidates, so the
    # selected batch size is measured no worse than the uncalibrated
    # policy on this machine.
    batches = sorted(set(options.serving_batches) | {32})
    pool = _sample(rng, max(batches), m)
    costs: List[float] = []
    for b in batches:
        X = np.ascontiguousarray(pool[:b])
        predictor.predict_full(X)  # warm

        def run(X: np.ndarray = X) -> None:
            predictor.predict_full(X)

        costs.append(_best_of(run, max(options.reps, 2)))
    # The per-item cost curve is U-shaped, not ``base + per_item*b`` all
    # the way: amortization wins up to a few dozen items, then cache
    # pressure of the padded FFT workspaces turns against large batches.
    # Pick the *measured* optimum; ties break toward the larger batch
    # (more backlog drained per call at equal per-item cost).
    per_item = [cost / b for b, cost in zip(batches, costs)]
    best_index = min(range(len(batches)), key=lambda i: (per_item[i], -batches[i]))
    max_batch = int(batches[best_index])
    base_s, per_item_s = _fit_serving_curve(batches, costs)
    return {
        "max_batch": float(max_batch),
        "kernel_base_s": base_s,
        "kernel_per_item_s": per_item_s,
    }


def calibrate(
    quick: bool = False,
    seed: int = 0,
    options: Optional[CalibrationOptions] = None,
) -> HardwareProfile:
    """Measure the current machine and return a :class:`HardwareProfile`.

    ``quick=True`` selects the CI-sized plan (~seconds); the full plan
    measures three length buckets and five metric families. Pass a custom
    :class:`CalibrationOptions` to control the plan exactly. The returned
    profile is **not** persisted or activated — use
    :func:`repro.tuning.save_profile` / the ``python -m repro.tuning
    calibrate`` CLI for that.
    """
    if options is None:
        options = (
            CalibrationOptions.quick_options(seed=seed)
            if quick
            else CalibrationOptions(seed=seed)
        )
    rng = np.random.default_rng(options.seed)
    pair_cost_us = _measure_pair_costs(options, rng)
    overheads = {
        "thread_spawn_s": _measure_thread_spawn(options.reps),
        "process_spawn_s": _measure_process_spawn(options.reps),
        "shm_handoff_s_per_mb": _measure_shm_handoff(options.reps, rng),
        "fft_warmup_s": _measure_fft_warmup(options.reps, rng),
        "tile_dispatch_us": _measure_tile_dispatch(options.reps, rng),
    }
    serving = _measure_serving(options, rng)
    try:
        cpu_count = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpu_count = os.cpu_count() or 1
    machine = {
        "cpu_count": cpu_count,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    calibration = {
        "seed": options.seed,
        "reps": options.reps,
        "quick": options.quick,
        "lengths": list(options.lengths),
        "metrics": list(options.metrics),
        "n_series": options.n_series,
        "serving_batches": list(options.serving_batches),
        "cdtw_band": CDTW_BAND,
    }
    return HardwareProfile(
        machine=machine,
        overheads=overheads,
        pair_cost_us=pair_cost_us,
        serving=serving,
        calibration=calibration,
        schema_version=PROFILE_SCHEMA_VERSION,
    )
