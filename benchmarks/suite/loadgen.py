"""Open-loop Poisson load generator and the capacity-ladder rules.

One thread sends every request. Request ``i`` is due at an absolute time
``t0 + due[i]`` drawn from a Poisson process; the generator sleeps until it
is due, or sends at once when it is already late, so a stall in the
system delays the requests behind it instead of thinning the load. Each
request is timed from its due time to its completion, which counts that
delay, and the generator records how late it sent each one.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeout
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

#: Ladder of offered rates (req/s) for the serving capacity search.
LADDER = (1500, 3000, 6000, 12000, 24000)
#: The rung whose latencies are the gated end-to-end metrics. Rungs up to
#: and including it always run. It sits at a third or less of the measured
#: capacity (4.5k-6k req/s), so a machine running at half speed still
#: serves it; at 3000 req/s such a slowdown tipped the queue into the
#: batch-of-one collapse and the median rose from 6 ms to 100-360 ms.
GATE_RATE = 1500
#: A rung passes when p99 latency stays within this limit ...
P99_LIMIT_MS = 50.0
#: ... and the backlog left when its last request is sent is at most this
#: share of the rung's requests, beyond what a healthy queue holds: the
#: batch being computed and the one being filled, ``2 * max_batch``.
BACKLOG_LIMIT = 0.01


def poisson_due_times(rate: float, seconds: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process of ``rate`` over ``seconds``."""
    n = int(rate * seconds * 1.2) + 16
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while due[-1] < seconds:
        more = due[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))
        due = np.concatenate([due, more])
    return due[due < seconds]


class OpenLoop:
    """Send requests on a schedule and record when each finished.

    ``submit(i)`` must return a future resolving to ``(label, distance)``.
    Times are ``perf_counter_ns`` readings, so they line up with spans.
    """

    def __init__(self, n: int) -> None:
        self.t0 = 0
        self.due = np.zeros(n, dtype=np.int64)
        self.sent = np.zeros(n, dtype=np.int64)
        self.done = np.zeros(n, dtype=np.int64)
        # A request that failed or never finished keeps label -1.
        self.labels = np.full(n, -1, dtype=np.int64)
        self.distances = np.full(n, np.nan)

    def _finished(self, i: int, future) -> None:
        self.done[i] = time.perf_counter_ns()
        if future.exception() is None:
            self.labels[i], self.distances[i] = future.result()

    def send(
        self,
        offsets: np.ndarray,
        submit: Callable[[int], object],
        before_send: Optional[Callable[[int], None]] = None,
        tracer=None,
    ) -> List[object]:
        """Send request ``i`` at ``t0 + offsets[i]``; returns the futures.

        With a tracer, the spans each submit opens carry the request id.
        """
        futures = []
        self.t0 = t0 = time.perf_counter_ns()
        for i, offset in enumerate(offsets):
            due = t0 + int(offset * 1e9)
            self.due[i] = due
            if before_send is not None:
                before_send(i)
            delay = due - time.perf_counter_ns()
            if delay > 0:
                time.sleep(delay / 1e9)
            self.sent[i] = time.perf_counter_ns()
            if tracer is None:
                future = submit(i)
            else:
                with tracer.request(i):
                    future = submit(i)
            future.add_done_callback(lambda f, i=i: self._finished(i, f))
            futures.append(future)
        return futures

    def latency_ms(self) -> np.ndarray:
        return (self.done - self.due) / 1e6

    def late_ms(self) -> np.ndarray:
        return (self.sent - self.due) / 1e6


def wait_all(futures: Sequence[object], timeout_s: float = 60.0) -> int:
    """Wait for every future; returns how many did not finish in time."""
    deadline = time.monotonic() + timeout_s
    missing = 0
    for future in futures:
        try:
            future.exception(timeout=max(deadline - time.monotonic(), 0.0))
        except FutureTimeout:
            missing += 1
    return missing


def rung_passes(p99_ms: float, backlog: int, n_requests: int, max_batch: int) -> bool:
    excess = backlog - 2 * max_batch
    return p99_ms <= P99_LIMIT_MS and excess <= BACKLOG_LIMIT * n_requests


def next_rate(rate: int, passed: bool, top: int = LADDER[-1]) -> Optional[int]:
    """The next rung to run, or ``None`` when the ladder stops.

    Rungs up to the gate always run; past it the ladder stops after the
    first failing rung, or at ``top``.
    """
    if rate >= top or (not passed and rate >= GATE_RATE):
        return None
    return rate * 2


def max_passing(rungs: Sequence[Tuple[int, bool]]) -> int:
    """Highest offered rate of a passing rung (0 when none passed)."""
    return max((rate for rate, passed in rungs if passed), default=0)

