"""In-memory spans for the traced benchmark run, and the arithmetic on them.

The timing wrappers live here, in the benchmark's own code: for the length
of a traced run they replace module attributes of the program (the
layer-boundary names in :data:`TARGETS`) and restore them afterwards.
Nothing under ``src/`` knows about them. A name that no longer resolves is
reported as absent instead of failing the run, so a later change that moves
a function shows up as a missing layer, not as a crash.

Everything below :class:`Tracer` is plain arithmetic on recorded spans —
self time, the FIFO join of requests to the batches that served them, and
the per-layer shares — so the unit tests can feed it synthetic spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: One timed call. ``start``/``end`` are ``perf_counter_ns`` readings;
#: ``parent`` is the ``sid`` of the enclosing span on the same thread;
#: ``rid`` is the serving request being submitted, if any; ``count`` is the
#: work the call was handed (rows x references, tasks, rows); ``key`` is
#: ``id()`` of the predictor the call belongs to, for the FIFO join.
Span = namedtuple(
    "Span", "sid name start end parent thread rep rid count key"
)

#: A layer boundary: span name, ``module:Qualified.attr``, and optional
#: ``count(args)`` / ``key(args)`` extractors.
Target = namedtuple("Target", "name path count key", defaults=(None, None))


def _cells(args: tuple) -> int:
    # ncc_c_max_multi(fft_X, norms_X, fft_refs, norms_refs, m, fft_len)
    return int(args[0].shape[0] * args[2].shape[0])


def _tasks(args: tuple) -> int:
    # parallel_map(fn, items, ...) inside KShape.fit: one task per dirty cluster
    return len(args[1])


def _rows(args: tuple) -> int:
    # ShapePredictor.predict_full(self, X, ...)
    return len(args[1])


def _self(args: tuple) -> object:
    return args[0]


def _queue_predictor(args: tuple) -> object:
    # MicroBatchQueue.submit(self, x): the predictor that will serve x
    return args[0].predictor


TARGETS: Tuple[Target, ...] = (
    Target("kshape.fit", "repro.core.kshape:KShape.fit"),
    Target("core.ncc", "repro.core.kshape:ncc_c_max_multi", _cells),
    Target("core.fft", "repro.core.kshape:rfft_batch"),
    Target("core.align", "repro.core.kshape:shift_series_batch"),
    Target("core.extract", "repro.core.kshape:parallel_map", _tasks),
    Target("core.ncc", "repro.serving.predictor:ncc_c_max_multi", _cells),
    Target("core.fft", "repro.serving.predictor:rfft_batch"),
    Target(
        "predictor.predict_full",
        "repro.serving.predictor:ShapePredictor.predict_full",
        _rows,
        _self,
    ),
    Target("predictor.build", "repro.serving.predictor:ShapePredictor.__init__"),
    Target("prune.engine", "repro.distances.prune:NeighborEngine.query_batch"),
    Target(
        "queue.submit",
        "repro.serving.queue:MicroBatchQueue.submit",
        None,
        _queue_predictor,
    ),
    Target("queue.close", "repro.serving.queue:MicroBatchQueue.close"),
    Target("fleet.submit", "repro.serving.fleet:ShapeFleet.submit"),
    Target("fleet.swap", "repro.serving.fleet:ShapeFleet.swap_to"),
    Target("router.route", "repro.serving.router:ShardRouter.route"),
    Target("registry.load", "repro.serving.registry:ModelRegistry.load"),
)


def _resolve(path: str) -> Tuple[object, str]:
    module_name, _, qualname = path.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = qualname.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, attr)  # raises AttributeError when the name is gone
    return owner, attr


class Tracer:
    """Records a :class:`Span` per call of every installed target.

    Wrappers are installed once and record only while :attr:`recording` is
    true, so warm-up calls leave no spans. Objects whose ``id()`` a span
    stores as its key are kept alive until the tracer is dropped, so an id
    is never reused by a later object within one run.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.rep: Optional[int] = None
        self.recording = False
        self.absent: List[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._objects: Dict[int, object] = {}

    # -------------------------------------------------------- installation
    def install(self, targets: Iterable[Target] = TARGETS) -> None:
        for target in targets:
            try:
                owner, attr = _resolve(target.path)
            except (ImportError, AttributeError):
                self.absent.append(target.path)
                continue
            original = getattr(owner, attr)
            had_own = attr in vars(owner)
            setattr(owner, attr, self._wrap(target, original))
            self._patches.append((owner, attr, original, had_own))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                key = None
                if target.key is not None:
                    obj = target.key(args)
                    key = id(obj)
                    tracer._objects[key] = obj
                tracer.spans.append(
                    Span(
                        sid,
                        target.name,
                        start,
                        end,
                        parent,
                        threading.get_ident(),
                        tracer.rep,
                        getattr(tracer._local, "rid", None),
                        None if target.count is None else target.count(args),
                        key,
                    )
                )

        return wrapper

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, rid: int):
        """Tag every span opened on this thread inside the block with ``rid``."""
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = None

    # --------------------------------------------------------------- export
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                record = span._asdict()
                record["workload"] = self.workload
                handle.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------- arithmetic
def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Self time per span: its duration minus what its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(c.start, span.start), min(c.end, span.end))
            for c in children.get(span.sid, ())
        )
        out[span.sid] = (span.end - span.start) - covered
    return out


def subtree_self(
    spans: Sequence[Span], selfs: Dict[int, int]
) -> Dict[int, Dict[str, int]]:
    """For every span: self time per layer name over its whole subtree."""
    by_sid = {span.sid: span for span in spans}
    out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        node: Optional[Span] = span
        while node is not None:
            out[node.sid][span.name] += selfs[span.sid]
            node = by_sid.get(node.parent) if node.parent is not None else None
    return out


def fifo_join(n_requests: int, batch_sizes: Sequence[int]) -> np.ndarray:
    """Index of the batch that served each request, by arrival order.

    A micro-batch queue serves its requests first in, first out, so the
    ``i``-th request submitted to a queue rides in the batch whose
    cumulative size first exceeds ``i``.
    """
    sizes = np.asarray(batch_sizes, dtype=np.int64)
    if int(sizes.sum()) != n_requests or np.any(sizes < 1):
        raise ValueError(
            f"{n_requests} requests cannot fill batches of sizes "
            f"{sizes.tolist()[:8]}..."
        )
    return np.repeat(np.arange(sizes.size), sizes)


def closed_loop_breakdown(
    spans: Sequence[Span], root: str
) -> Tuple[Dict[str, float], List[int]]:
    """Per-layer self time as a share of the root calls' total time.

    Returns the shares and the root spans' durations (one per operation).
    """
    selfs = self_times(spans)
    durations = [s.end - s.start for s in spans if s.name == root and s.parent is None]
    total = sum(durations)
    shares: Dict[str, float] = defaultdict(float)
    for span in spans:
        shares[span.name] += selfs[span.sid] / total if total else 0.0
    return dict(shares), durations


def request_breakdown(
    spans: Sequence[Span],
    due_ns: np.ndarray,
    done_ns: np.ndarray,
    rids: Sequence[int],
) -> dict:
    """Split each request's latency, from its due time, over the layers.

    For request ``r``: ``loadgen.late`` runs from the due time to the start
    of its submit call; the submit call's spans give their own self times;
    ``queue.wait`` runs from the end of submit to the start of its batch
    (joined in FIFO order per predictor); the batch's spans give theirs;
    ``queue.deliver`` runs from the end of the batch to the request's
    completion. The parts sum to ``done - due`` exactly. Returns the shares
    of the summed latency, plus per-request waits, the batches served and
    the predictor busy time.
    """
    selfs = self_times(spans)
    subtree = subtree_self(spans, selfs)
    roots: Dict[int, Span] = {}
    submit_key: Dict[int, int] = {}
    for span in spans:
        if span.rid is None:
            continue
        if span.parent is None:
            roots[span.rid] = span
        if span.name == "queue.submit":
            submit_key[span.rid] = span.key
    batches: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.name == "predictor.predict_full" and span.rid is None:
            batches[span.key].append(span)

    # Every request that reached a queue, grouped per predictor, in order.
    queued: Dict[int, List[int]] = defaultdict(list)
    for rid in sorted(submit_key, key=lambda r: roots[r].start):
        queued[submit_key[rid]].append(rid)
    batch_of: Dict[int, Span] = {}
    for key, members in queued.items():
        served = sorted(batches.get(key, []), key=lambda s: s.start)
        index = fifo_join(len(members), [s.count for s in served])
        for rid, b in zip(members, index):
            batch_of[rid] = served[b]

    totals: Dict[str, float] = defaultdict(float)
    latency_total = 0
    waits = []
    used = {}
    for rid in rids:
        root = roots[rid]
        batch = batch_of[rid]
        used[batch.sid] = batch
        due, done = int(due_ns[rid]), int(done_ns[rid])
        latency_total += done - due
        totals["loadgen.late"] += root.start - due
        for name, ns in subtree[root.sid].items():
            totals[name] += ns
        begin = min(max(batch.start, root.end), batch.end)
        waits.append(max(batch.start - root.end, 0))
        totals["queue.wait"] += max(batch.start - root.end, 0)
        if batch.end > batch.start:
            scale = (batch.end - begin) / (batch.end - batch.start)
            for name, ns in subtree[batch.sid].items():
                totals[name] += ns * scale
        totals["queue.deliver"] += done - max(batch.end, root.end)
    shares = {
        name: value / latency_total if latency_total else 0.0
        for name, value in totals.items()
    }
    return {
        "shares": shares,
        "mean_ms": {
            name: value / max(len(rids), 1) / 1e6 for name, value in totals.items()
        },
        "wait_ns": np.asarray(waits, dtype=np.int64),
        "batch_sizes": [b.count for b in used.values()],
        "busy_ns": sum(b.end - b.start for b in used.values()),
    }


def inclusive_under(
    spans: Sequence[Span], root_name: str, names: Sequence[str]
) -> Tuple[Dict[str, float], int]:
    """Inclusive time of ``names`` spans nested under ``root_name`` spans,
    as shares of the roots' total time; also returns that total."""
    by_sid = {span.sid: span for span in spans}
    roots = {s.sid for s in spans if s.name == root_name}
    total = sum(by_sid[sid].end - by_sid[sid].start for sid in roots)
    shares = {name: 0.0 for name in names}
    for span in spans:
        if span.name not in shares:
            continue
        node = by_sid.get(span.parent) if span.parent is not None else None
        while node is not None and node.sid not in roots:
            node = by_sid.get(node.parent) if node.parent is not None else None
        if node is not None and total:
            shares[span.name] += (span.end - span.start) / total
    return shares, total
