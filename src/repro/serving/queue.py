"""Micro-batching request queue for single-series inference traffic.

Serving traffic arrives one series at a time, but every kernel in this
package is batched — one :func:`~repro.core._fft_batch.ncc_c_max_multi`
call over 32 queries costs far less than 32 calls over one. The
:class:`MicroBatchQueue` bridges the two: :meth:`~MicroBatchQueue.submit`
enqueues a single series and returns a future; a collector thread coalesces
waiting requests into one batched :class:`~repro.serving.ShapePredictor`
call. The collector never waits on a timer: it blocks for the first
request, takes every request already waiting (up to ``max_batch``) and
runs the batch at once; requests that arrive while a batch runs form the
next one. Batch size therefore follows the load — about 1 when traffic is
light, ``max_batch`` whenever a backlog builds.

Because the predictor's batched and per-series answers are exactly equal,
coalescing never changes a response — it only changes throughput. Per-request
latency and per-batch occupancy counters accumulate into a
:class:`ServingStats` snapshot for dashboards and the serving benchmark.

For deterministic tests (and single-threaded callers), construct with
``autostart=False`` and drive the queue manually with
:meth:`~MicroBatchQueue.flush`.
"""

from __future__ import annotations

import queue as _queue
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from time import monotonic
from typing import Deque, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .._validation import as_series, check_positive_int
from ..exceptions import QueueClosedError
from .predictor import ShapePredictor

__all__ = [
    "ServingStats",
    "MicroBatchQueue",
    "DEFAULT_MAX_BATCH",
]

#: Rolling reservoir size the latency percentiles are computed over. Large
#: enough that p99 rests on ~40 samples, small enough that a snapshot copy
#: is cheap under the queue's lock.
LATENCY_RESERVOIR = 4096

#: Static fallback batch cap, used when no measured
#: :class:`repro.tuning.HardwareProfile` is active. A calibrated profile
#: replaces it with the per-item-cost optimum of this machine's
#: batched-kernel cost curve.
DEFAULT_MAX_BATCH = 32


def _default_max_batch() -> int:
    """The active profile's calibrated batch cap, else the static default."""
    from ..tuning.profile import get_active_profile

    profile = get_active_profile()
    return profile.serving_max_batch if profile is not None else DEFAULT_MAX_BATCH


@dataclass
class ServingStats:
    """Cumulative serving counters (one snapshot is one point in time).

    Attributes
    ----------
    requests:
        Series submitted.
    completed:
        Series answered.
    batches:
        Kernel invocations performed.
    rejected:
        Series whose futures were failed with
        :class:`~repro.exceptions.QueueClosedError` by a
        ``close(drain=False)`` shutdown.
    batch_occupancy:
        Series summed over all batches (``completed`` counted at flush
        time); ``mean_batch_size`` derives from it.
    max_batch_size:
        Largest batch flushed so far.
    total_latency_s / max_latency_s:
        Submit-to-resolve wall-clock, summed / worst-case.
    kernel_s:
        Time spent inside the batched predictor calls.
    queue_depth:
        Requests submitted but not yet resolved (gauge, not cumulative).
    max_queue_depth:
        High-water mark of ``queue_depth``.
    recent_latencies:
        Rolling reservoir of the last :data:`LATENCY_RESERVOIR`
        per-request latencies; ``p50_latency_s`` / ``p99_latency_s``
        derive from it.
    """

    requests: int = 0
    completed: int = 0
    rejected: int = 0
    batches: int = 0
    batch_occupancy: int = 0
    max_batch_size: int = 0
    total_latency_s: float = 0.0
    max_latency_s: float = 0.0
    kernel_s: float = 0.0
    queue_depth: int = 0
    max_queue_depth: int = 0
    recent_latencies: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_RESERVOIR),
        repr=False,
        compare=False,
    )

    @property
    def mean_batch_size(self) -> float:
        return self.batch_occupancy / self.batches if self.batches else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.completed if self.completed else 0.0

    @property
    def throughput(self) -> float:
        """Completed series per second of kernel time."""
        return self.completed / self.kernel_s if self.kernel_s > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile (``0 <= q <= 100``) over the rolling reservoir."""
        if not self.recent_latencies:
            return 0.0
        samples = np.fromiter(self.recent_latencies, dtype=np.float64)
        return float(np.percentile(samples, q))

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p99_latency_s(self) -> float:
        return self.latency_percentile(99.0)

    def as_dict(self) -> dict:
        """Counters plus derived rates, ready for JSON reports.

        The raw latency reservoir is summarized (p50/p99), not emitted.
        """
        out = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name != "recent_latencies"
        }
        out["mean_batch_size"] = self.mean_batch_size
        out["mean_latency_s"] = self.mean_latency_s
        out["p50_latency_s"] = self.p50_latency_s
        out["p99_latency_s"] = self.p99_latency_s
        out["throughput"] = self.throughput
        return out


@dataclass
class _Request:
    series: np.ndarray
    future: Future
    submitted: float = field(default_factory=monotonic)


class MicroBatchQueue:
    """Coalesce single-series requests into batched predictor calls.

    Parameters
    ----------
    predictor:
        A :class:`~repro.serving.ShapePredictor` (or anything exposing
        ``predict_full(X) -> Prediction`` and an ``m`` attribute).
    max_batch:
        Most requests one predictor call takes. ``None`` (the default)
        takes the active hardware profile's measured value, or
        :data:`DEFAULT_MAX_BATCH` when no profile is active.
    autostart:
        Start the collector thread immediately. ``False`` leaves the queue
        passive: requests buffer until an explicit :meth:`flush` — the
        deterministic mode tests and synchronous callers use.

    Notes
    -----
    Each future resolves to a ``(label, distance)`` pair. The queue is a
    context manager; leaving the ``with`` block drains outstanding
    requests and stops the collector.
    """

    def __init__(
        self,
        predictor: ShapePredictor,
        max_batch: Optional[int] = None,
        autostart: bool = True,
    ) -> None:
        if max_batch is None:
            max_batch = _default_max_batch()
        self.predictor = predictor
        self.max_batch = check_positive_int(max_batch, "max_batch")
        self._inbox: "_queue.Queue[Optional[_Request]]" = _queue.Queue()
        self._lock = threading.Lock()
        self._stats = ServingStats()
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        if autostart:
            self._thread = threading.Thread(
                target=self._collector, name="repro-serving-queue", daemon=True
            )
            self._thread.start()

    # ------------------------------------------------------------------
    def submit(self, x: ArrayLike) -> Future:
        """Enqueue one series; the future resolves to ``(label, distance)``.

        Raises :class:`~repro.exceptions.QueueClosedError` once the queue
        has been closed — a late submit can never be silently dropped.
        """
        series = as_series(x, "x")
        request = _Request(series=series, future=Future())
        # The closed check and the enqueue share the lock with close(), so
        # no request can slip into the inbox after close() swept it.
        with self._lock:
            if self._closed:
                raise QueueClosedError("queue is closed")
            self._stats.requests += 1
            self._stats.queue_depth += 1
            self._stats.max_queue_depth = max(
                self._stats.max_queue_depth, self._stats.queue_depth
            )
            self._inbox.put(request)
        return request.future

    def predict(self, x: ArrayLike) -> Tuple[int, float]:
        """Blocking single-series convenience: submit and wait.

        With no collector thread (``autostart=False``) the waiting batch is
        flushed synchronously instead of blocking forever.
        """
        future = self.submit(x)
        if self._thread is None:
            self.flush()
        return future.result()

    def stats(self) -> ServingStats:
        """A consistent snapshot of the cumulative counters."""
        with self._lock:
            values = {
                name: getattr(self._stats, name)
                for name in ServingStats.__dataclass_fields__
            }
            # The reservoir is mutable — snapshot a copy, not the live deque.
            values["recent_latencies"] = deque(
                self._stats.recent_latencies, maxlen=LATENCY_RESERVOIR
            )
            return ServingStats(**values)

    # ------------------------------------------------------------------
    def _drain_waiting(self, limit: int) -> List[_Request]:
        """Non-blocking: pop up to ``limit`` requests already waiting."""
        batch: List[_Request] = []
        while len(batch) < limit:
            try:
                item = self._inbox.get_nowait()
            except _queue.Empty:
                break
            if item is not None:
                batch.append(item)
        return batch

    def flush(self) -> int:
        """Synchronously answer every waiting request; returns the count.

        Requests are processed in arrival order, in batches of at most
        ``max_batch`` (so occupancy statistics match the collector's).
        """
        total = 0
        while True:
            batch = self._drain_waiting(self.max_batch)
            if not batch:
                return total
            self._process(batch)
            total += len(batch)

    def _process(self, batch: List[_Request]) -> None:
        X = np.stack([r.series for r in batch])
        before = getattr(self.predictor, "kernel_seconds", 0.0)
        try:
            prediction = self.predictor.predict_full(X)
        except Exception as exc:  # resolve, don't wedge the callers
            for request in batch:
                request.future.set_exception(exc)
            with self._lock:
                # Failed requests still leave the queue.
                self._stats.queue_depth -= len(batch)
            return
        kernel = getattr(self.predictor, "kernel_seconds", 0.0) - before
        now = monotonic()
        with self._lock:
            stats = self._stats
            stats.batches += 1
            stats.batch_occupancy += len(batch)
            stats.max_batch_size = max(stats.max_batch_size, len(batch))
            stats.kernel_s += kernel
            stats.queue_depth -= len(batch)
            for request in batch:
                latency = now - request.submitted
                stats.completed += 1
                stats.total_latency_s += latency
                stats.max_latency_s = max(stats.max_latency_s, latency)
                stats.recent_latencies.append(latency)
        for i, request in enumerate(batch):
            request.future.set_result(
                (int(prediction.labels[i]), float(prediction.distances[i]))
            )

    def _collector(self) -> None:
        while True:
            first = self._inbox.get()  # block only while the inbox is empty
            if first is None:  # shutdown sentinel
                return
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    item = self._inbox.get_nowait()
                except _queue.Empty:
                    break
                if item is None:
                    self._process(batch)
                    return
                batch.append(item)
            self._process(batch)

    def _reject_waiting(self) -> int:
        """Fail every waiting request with ``QueueClosedError``."""
        rejected = 0
        while True:
            batch = self._drain_waiting(self.max_batch)
            if not batch:
                break
            for request in batch:
                request.future.set_exception(
                    QueueClosedError("queue closed before this request ran")
                )
            with self._lock:
                self._stats.rejected += len(batch)
                self._stats.queue_depth -= len(batch)
            rejected += len(batch)
        return rejected

    # ------------------------------------------------------------------
    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and stop the collector.

        Parameters
        ----------
        drain:
            ``True`` (default) answers every waiting request before
            returning — the graceful path hot swaps rely on, so a response
            is never lost. ``False`` fails the backlog's futures with
            :class:`~repro.exceptions.QueueClosedError` instead (emergency
            teardown); either way no future is left unresolved.

        Subsequent :meth:`submit` calls raise
        :class:`~repro.exceptions.QueueClosedError`. Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._thread is not None:
            self._inbox.put(None)
            self._thread.join()
            self._thread = None
        if drain:
            self.flush()  # anything the collector left behind
        else:
            self._reject_waiting()

    def __enter__(self) -> "MicroBatchQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
