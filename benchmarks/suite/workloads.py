"""The four benchmark workloads.

Each workload builds its inputs from the seed (:meth:`prepare`, untimed),
performs the set-up a user pays before the first answer (:meth:`setup`,
timed into ``setup_s``), then measures for a given number of seconds
(:meth:`run`). ``run`` checks every output it produces against an oracle
and, when handed a :class:`~spans.Tracer`, also returns the per-layer
breakdown of the traced pass. The program only ever sees the generated
arrays.

The two closed loops time each operation next to a run of the
:mod:`probe` and report it scaled to the reference machine speed. The two
open loops report raw latency: at their rates it is mostly the queue's
flush deadline, which does not scale with the machine.
"""

from __future__ import annotations

import os
import resource
import time
import warnings
from typing import Dict, List, Optional

import numpy as np

import loadgen
import probe
import spans
from repro import (
    KShape,
    MicroBatchQueue,
    ModelRegistry,
    ShapeFleet,
    ShapePredictor,
    adjusted_rand_index,
    make_cbf,
    save_model,
    zscore,
)
from repro.distances import cross_distances
from repro.exceptions import ConvergenceWarning

#: k-Shape iterations per fit. Convergence takes 2 to 8 iterations
#: depending on the draw, so a fit run to convergence would measure the
#: seed more than the code. Two iterations are the same work on every
#: seed: the first assignment never reproduces the random initial labels,
#: so no fit stops after one, and both iterations align, extract and
#: reassign every cluster.
FIT_ITER = 2
#: Closed loops run at least this many operations, then stop when the next
#: one, as long as the last, would end after the run's seconds.
MIN_REPS = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sinusoid_families(n: int, m: int, k: int, rng: np.random.Generator):
    """``k`` families of phase-shifted sinusoids, z-normalized, with labels."""
    t = np.linspace(0.0, 1.0, m)
    y = np.arange(n) % k
    phase = rng.uniform(0.0, 1.0, n)
    X = np.sin(2 * np.pi * ((2.0 + 1.5 * y)[:, None] * t + phase[:, None]))
    return zscore(X + rng.normal(0.0, 0.1, (n, m))), y


def _fit(X: np.ndarray, k: int, seed: int, max_iter: int = FIT_ITER) -> KShape:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        return KShape(k, max_iter=max_iter, random_state=seed).fit(X)


def _ms(values_ns) -> np.ndarray:
    return np.asarray(values_ns, dtype=np.float64) / 1e6


def _speed(wall_ns, probe_ns) -> Dict[str, float]:
    """Unscaled closed-loop median and the probe's median, both in ms."""
    return {
        "wall_p50_ms": float(np.median(_ms(wall_ns))),
        "probe_ms": float(np.median(_ms(probe_ns))),
    }


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Build the inputs from the seed."""

    def setup(self) -> None:
        """What a user pays before the first answer."""

    def run(self, seconds: float, tracer: Optional[spans.Tracer]) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release threads and files."""


class FitSBD(Workload):
    """``KShape(8).fit`` on n=400, m=512 sinusoid families, closed loop.

    n=400 keeps every per-iteration array (400 x 1024 doubles, 3.3 MB)
    under numpy's 4 MiB huge-page threshold while the assignment kernel
    still takes its per-reference path, as it does for any n >= 342 at this
    length. At n=1000 the arrays are 8 MB, and whether the kernel grants a
    process huge pages moved the fit time by 10-17% from process to
    process, which measures the machine, not the code.
    """

    name = "fit_sbd"

    def prepare(self) -> None:
        n, m, self.k = (120, 64, 4) if self.smoke else (400, 512, 8)
        rng = np.random.default_rng(self.seed)
        self.X, self.y = sinusoid_families(n, m, self.k, rng)

    def run(self, seconds, tracer):
        first = _fit(self.X, self.k, self.seed)  # warm-up, untimed and untraced
        wall, probes, differ, iterations = [], [], 0, []
        with probe.SpeedProbe() as speed:
            if tracer is not None:
                tracer.recording = True
            deadline = time.perf_counter_ns() + int(seconds * 1e9)
            step = 0
            while len(wall) < MIN_REPS or time.perf_counter_ns() + step < deadline:
                if tracer is not None:
                    tracer.rep = len(wall)
                start = time.perf_counter_ns()
                model = _fit(self.X, self.k, self.seed)
                wall.append(time.perf_counter_ns() - start)
                probes.append(speed.time_ns())
                step = time.perf_counter_ns() - start
                # Every fit must repeat the first; only the first is kept, so
                # memory does not grow with the number of fits.
                differ += not (
                    np.array_equal(model.labels_, first.labels_)
                    and np.array_equal(model.centroids_, first.centroids_)
                )
                iterations.append(model.n_iter_)
            if tracer is not None:
                tracer.recording = False
        rss = peak_rss_mb()

        # Oracle: the public dense SBD matrix against the fitted centroids.
        # Labels are its argmin, except that k-Shape moves one series into
        # each cluster the argmin leaves empty, where it is the only member.
        D = cross_distances(self.X, first.centroids_, metric="sbd")
        argmin = np.argmin(D, axis=1)
        moved = np.flatnonzero(first.labels_ != argmin)
        empty = np.setdiff1d(np.arange(self.k), argmin)
        sizes = np.bincount(first.labels_, minlength=self.k)
        nearest = D[np.arange(D.shape[0]), first.labels_]
        oracle_ok = bool(
            np.array_equal(np.sort(first.labels_[moved]), empty)
            and np.all(sizes[empty] == 1)
            and np.isclose(first.inertia_, np.sum(nearest**2), rtol=1e-9, atol=0.0)
        )
        out = {
            "op_ms": _ms(probe.at_reference_speed(wall, probes)),
            "attempted": len(wall),
            "failed": len(wall) if not oracle_ok else differ,
            "rss_mb": rss,
            "diagnostics": {
                **_speed(wall, probes),
                "ari": adjusted_rand_index(self.y, first.labels_),
                "iterations": first.n_iter_,
                "reps": len(wall),
            },
        }
        if tracer is not None:
            shares, roots = spans.closed_loop_breakdown(tracer.spans, "kshape.fit")
            ncc = [s.count for s in tracer.spans if s.name == "core.ncc"]
            tasks = [s.count for s in tracer.spans if s.name == "core.extract"]
            out["layers"] = {
                **{f"{name}_share": v for name, v in shares.items()},
                "kshape.assign_cells": sum(ncc) / len(wall),
                "kshape.extract_calls": sum(tasks) / len(wall),
                "kshape.iterations": float(np.mean(iterations)),
            }
            out["breakdown"] = _per_op_ms(shares, roots)
        return out


class QueryCDTW(Workload):
    """``ShapePredictor(E, "cdtw5").predict_full(Q)`` on CBF, closed loop."""

    name = "query_cdtw"

    def prepare(self) -> None:
        per_class, n_queries, self.n_checked = (8, 60, 20) if self.smoke else (32, 800, 100)
        rng = np.random.default_rng(self.seed)
        E, self.y_exemplar = make_cbf(per_class, 128, rng)
        Q, y = make_cbf(n_queries // 3 + 1, 128, rng)
        self.E, self.Q, self.y_query = zscore(E), zscore(Q[:n_queries]), y[:n_queries]

    def setup(self) -> None:
        self.predictor = ShapePredictor(self.E, metric="cdtw5")

    def run(self, seconds, tracer):
        if not hasattr(self, "oracle_labels"):
            # Dense oracle on a fixed subset: every pair scored, no pruning.
            D = cross_distances(self.Q[: self.n_checked], self.E, metric="cdtw5")
            self.oracle_labels = np.argmin(D, axis=1)
            self.oracle_dists = D[np.arange(self.n_checked), self.oracle_labels]
        predictor = self.predictor
        predictor.predict_full(self.Q[:16])  # warm-up
        wall, probes, counts = [], [], []
        first = None
        failed = 0
        with probe.SpeedProbe() as speed:
            if tracer is not None:
                tracer.recording = True
            began = time.perf_counter_ns()
            deadline = began + int(seconds * 1e9)
            step = 0
            while len(wall) < MIN_REPS or time.perf_counter_ns() + step < deadline:
                if tracer is not None:
                    tracer.rep = len(wall)
                before = predictor.stats.as_dict()
                start = time.perf_counter_ns()
                answer = predictor.predict_full(self.Q)
                wall.append(time.perf_counter_ns() - start)
                probes.append(speed.time_ns())
                step = time.perf_counter_ns() - start
                after = predictor.stats.as_dict()
                counts.append({key: after[key] - before[key] for key in (
                    "candidates", "lb_paa", "lb_kim", "lb_yi", "lb_keogh", "abandoned", "full"
                )})
                if first is None:
                    first = answer
                # The checked subset against the oracle, the rest against batch 1.
                n = self.n_checked
                wrong = (answer.labels != first.labels) | (answer.distances != first.distances)
                wrong[:n] = (answer.labels[:n] != self.oracle_labels) | (
                    answer.distances[:n] != self.oracle_dists
                )
                failed += int(wrong.sum())
            loop_ns = time.perf_counter_ns() - began
            if tracer is not None:
                tracer.recording = False
        rss = peak_rss_mb()
        per_batch = {key: float(np.mean([c[key] for c in counts])) for key in counts[0]}
        lb_pruned = sum(per_batch[t] for t in ("lb_paa", "lb_kim", "lb_yi", "lb_keogh"))
        out = {
            "op_ms": _ms(probe.at_reference_speed(wall, probes)),
            "attempted": len(wall) * self.Q.shape[0],
            "failed": failed,
            "rss_mb": rss,
            "diagnostics": {
                **_speed(wall, probes),
                "accuracy": float(np.mean(self.y_exemplar[first.labels] == self.y_query)),
                "batches": len(wall),
                "candidates": per_batch["candidates"],
                "full": per_batch["full"],
            },
        }
        if tracer is not None:
            shares, roots = spans.closed_loop_breakdown(
                tracer.spans, "predictor.predict_full"
            )
            out["breakdown"] = _per_op_ms(shares, roots)
            out["layers"] = {
                **{f"{name}_share": v for name, v in shares.items()},
                "prune.candidates": per_batch["candidates"],
                "prune.lb_pruned": lb_pruned,
                "prune.abandoned": per_batch["abandoned"],
                "prune.full": per_batch["full"],
                "prune.prune_rate": 1.0 - per_batch["full"] / per_batch["candidates"],
                "predictor.busy_share": sum(wall) / (loop_ns - sum(probes)),
            }
        return out


class _ServingWorkload(Workload):
    """Shared input generation: a fitted KShape and a pool of queries."""

    k = 8

    def prepare(self) -> None:
        m, self.pool_size = (64, 256) if self.smoke else (256, 2048)
        rng = np.random.default_rng(self.seed)
        X_train, _ = sinusoid_families(80 if self.smoke else 400, m, self.k, rng)
        self.pool, _ = sinusoid_families(self.pool_size, m, self.k, rng)
        self.models = self._train(X_train)
        self.expected = []
        for model in self.models:
            answer = ShapePredictor.from_model(model).predict_full(self.pool)
            self.expected.append((answer.labels, answer.distances))

    def _train(self, X: np.ndarray) -> List[KShape]:
        return [_fit(X, self.k, self.seed)]

    def _wrong(self, loop: loadgen.OpenLoop, version: np.ndarray) -> int:
        """Requests whose answer differs from the owning version's offline one."""
        idx = np.arange(loop.labels.size) % self.pool_size
        wrong = np.zeros(idx.size, dtype=bool)
        for v, (labels, distances) in enumerate(self.expected):
            mine = version == v
            wrong[mine] = (loop.labels[mine] != labels[idx[mine]]) | (
                loop.distances[mine] != distances[idx[mine]]
            )
        return int(wrong.sum())


class ServeSBD(_ServingWorkload):
    """Open-loop Poisson traffic into one ``MicroBatchQueue``, on a rate ladder."""

    name = "serve_sbd"

    def prepare(self) -> None:
        super().prepare()
        self.artifact = os.path.join(self.work_dir, "artifact")
        save_model(self.models[0], self.artifact)

    def setup(self) -> None:
        self.predictor = ShapePredictor.from_artifact(self.artifact)
        self.queue: Optional[MicroBatchQueue] = MicroBatchQueue(self.predictor)

    def _rung(self, rate, seconds, rng, tracer, rep):
        offsets = loadgen.poisson_due_times(rate, seconds, rng)
        loop = loadgen.OpenLoop(offsets.size)
        queue = self.queue or MicroBatchQueue(self.predictor)
        self.queue = None
        pool = self.pool
        size = self.pool_size
        first_span = 0
        if tracer is not None:
            tracer.rep = rep
            first_span = len(tracer.spans)
        futures = loop.send(offsets, lambda i: queue.submit(pool[i % size]), tracer=tracer)
        backlog = queue.stats().queue_depth
        missing = loadgen.wait_all(futures)
        queue.close()
        stats = queue.stats()
        latency = loop.latency_ms()
        row = {
            "rate": rate,
            "n": int(offsets.size),
            **{f"p{q}": float(np.percentile(latency, q)) for q in (50, 90, 99)},
            "backlog": int(backlog),
            "batch_mean": stats.mean_batch_size,
            "depth_max": stats.max_queue_depth,
            "late_p99_ms": float(np.percentile(loop.late_ms(), 99)),
        }
        row["passed"] = loadgen.rung_passes(row["p99"], backlog, row["n"], queue.max_batch)
        wrong = missing + self._wrong(loop, np.zeros(offsets.size, dtype=np.int64))
        return row, loop, wrong, first_span

    def run(self, seconds, tracer):
        rng = np.random.default_rng([self.seed, 1])
        rung_s = seconds / len(loadgen.LADDER)  # the full ladder fills the run
        top = loadgen.LADDER[1] if self.smoke else loadgen.LADDER[-1]
        self._rung(loadgen.LADDER[0], 0.25 if self.smoke else 1.0, rng, None, -1)  # warm-up
        if tracer is not None:
            tracer.recording = True
        rows, failed, attempted = [], 0, 0
        gate = last_pass = None
        rate: Optional[int] = loadgen.LADDER[0]
        while rate is not None:
            row, loop, wrong, first_span = self._rung(rate, rung_s, rng, tracer, len(rows))
            rows.append(row)
            failed += wrong
            attempted += row["n"]
            if tracer is not None and (rate == loadgen.GATE_RATE or row["passed"]):
                # Break down while the rung's spans are the newest ones.
                row["breakdown"] = spans.request_breakdown(
                    tracer.spans[first_span:], loop.due, loop.done, range(row["n"])
                )
                row["wall_ns"] = int(loop.due[-1] - loop.t0) or 1
            if rate == loadgen.GATE_RATE:
                gate = (row, loop.latency_ms(), peak_rss_mb())
            if row["passed"]:
                last_pass = row
            rate = loadgen.next_rate(rate, row["passed"], top)
        if tracer is not None:
            tracer.recording = False
        gate_row, latency, rss = gate
        out = {
            "op_ms": latency,
            "attempted": attempted,
            "failed": failed,
            "rss_mb": rss,
            "diagnostics": {
                "max_rps": loadgen.max_passing([(r["rate"], r["passed"]) for r in rows]),
                "late_p99_ms": gate_row["late_p99_ms"],
                "ladder": [{k: v for k, v in r.items() if k not in ("breakdown", "wall_ns")}
                           for r in rows],
            },
        }
        if tracer is not None:
            bd = gate_row["breakdown"]
            out["layers"] = {
                **{f"{name}_share": v for name, v in bd["shares"].items()},
                "queue.batch_mean": gate_row["batch_mean"],
                "queue.batch_mean_last": (last_pass or gate_row)["batch_mean"],
                "queue.depth_max": gate_row["depth_max"],
                "predictor.busy_share": bd["busy_ns"] / gate_row["wall_ns"],
            }
            out["breakdown"] = _request_summary(bd)
            if last_pass is not None and "breakdown" in last_pass:
                out["breakdown_last_pass"] = _request_summary(last_pass["breakdown"])
        return out

    def close(self) -> None:
        queue = getattr(self, "queue", None)
        if queue is not None:
            queue.close()


class SwapSBD(_ServingWorkload):
    """Poisson traffic through a ``ShapeFleet`` while versions swap."""

    name = "swap_sbd"
    rate = 1000
    swap_every_s = 0.5

    def _train(self, X):
        # Two versions from different initial memberships: their answers
        # differ, so serving a request from the wrong version is caught.
        return [_fit(X, self.k, self.seed), _fit(X, self.k, self.seed + 1)]

    def setup(self) -> None:
        registry = ModelRegistry(os.path.join(self.work_dir, "registry"))
        self.versions = [registry.publish(model) for model in self.models]
        self.fleet = ShapeFleet(registry, version=self.versions[0], autostart=True)
        self.active = 0

    def _traffic(self, seconds, rng, swaps, tracer):
        offsets = loadgen.poisson_due_times(self.rate, seconds, rng)
        loop = loadgen.OpenLoop(offsets.size)
        owner = np.zeros(offsets.size, dtype=np.int64)
        fleet, pool, size = self.fleet, self.pool, self.pool_size
        # Mid-interval due times: every swap falls strictly inside the run,
        # before the last request is sent, so each one happens.
        swap_due = [
            int(self.swap_every_s * 1e9 * (j + 0.5))
            for j in range(int(seconds / self.swap_every_s) if swaps else 0)
        ]
        reports, swap_ns = [], []

        def before_send(i):
            while len(reports) < len(swap_due) and (
                time.perf_counter_ns() - loop.t0 >= swap_due[len(reports)]
            ):
                start = time.perf_counter_ns()
                report = fleet.swap_to(self.versions[1 - self.active])
                swap_ns.append(time.perf_counter_ns() - start)
                reports.append(report)
                if report.outcome == "swapped":
                    self.active = 1 - self.active
            owner[i] = self.active

        futures = loop.send(
            offsets, lambda i: fleet.submit(i, pool[i % size]), before_send, tracer
        )
        missing = loadgen.wait_all(futures)
        wrong = missing + self._wrong(loop, owner)
        wrong += sum(r.outcome != "swapped" for r in reports)
        return loop, reports, swap_ns, wrong

    def run(self, seconds, tracer):
        rng = np.random.default_rng([self.seed, 2])
        self._traffic(0.5, rng, False, None)  # warm-up
        if tracer is not None:
            tracer.recording = True
            tracer.rep = 0
        loop, reports, swap_ns, failed = self._traffic(seconds, rng, True, tracer)
        if tracer is not None:
            tracer.recording = False
        rss = peak_rss_mb()
        latency = loop.latency_ms()
        out = {
            "op_ms": latency,
            "attempted": int(latency.size + len(reports)),
            "failed": int(failed),
            "rss_mb": rss,
            "diagnostics": {
                "swap_ms": float(np.median(_ms(swap_ns))) if swap_ns else float("nan"),
                "swaps": len(reports),
                "late_p99_ms": float(np.percentile(loop.late_ms(), 99)),
                "drained": int(sum(sum(r.drained.values()) for r in reports)),
            },
        }
        if tracer is not None:
            bd = spans.request_breakdown(tracer.spans, loop.due, loop.done, range(latency.size))
            swap_shares, _ = spans.inclusive_under(
                tracer.spans, "fleet.swap", ("registry.load", "predictor.build", "queue.close")
            )
            out["layers"] = {
                **{f"{name}_share": v for name, v in bd["shares"].items()},
                "swap.load_share": swap_shares["registry.load"],
                "swap.build_share": swap_shares["predictor.build"],
                "swap.drain_share": swap_shares["queue.close"],
                "swap.drained": out["diagnostics"]["drained"] / max(len(reports), 1),
                "queue.batch_mean": float(np.mean(bd["batch_sizes"])),
                "queue.depth_max": self.fleet.stats().max_queue_depth,
                "predictor.busy_share": bd["busy_ns"] / (int(loop.due[-1] - loop.t0) or 1),
            }
            out["breakdown"] = _request_summary(bd)
        return out

    def close(self) -> None:
        fleet = getattr(self, "fleet", None)
        if fleet is not None:
            fleet.close()


def _per_op_ms(shares: Dict[str, float], roots: List[int]) -> Dict[str, float]:
    """Absolute mean self time (ms) per operation of each layer."""
    mean_ms = float(np.mean(roots)) / 1e6
    return {f"{name}_ms": share * mean_ms for name, share in shares.items()}


def _request_summary(bd: dict) -> Dict[str, float]:
    """Absolute per-request layer times (ms) and queue-wait percentiles."""
    wait_ms = bd["wait_ns"] / 1e6
    return {
        **{f"{name}_ms": v for name, v in bd["mean_ms"].items()},
        "queue.wait_p50_ms": float(np.percentile(wait_ms, 50)),
        "queue.wait_p90_ms": float(np.percentile(wait_ms, 90)),
        "queue.batch_mean": float(np.mean(bd["batch_sizes"])),
    }


WORKLOADS = {cls.name: cls for cls in (FitSBD, QueryCDTW, ServeSBD, SwapSBD)}
