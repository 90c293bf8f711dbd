"""Tests for repro.serving.queue (micro-batching request queue)."""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import KShape
from repro.exceptions import InvalidParameterError
from repro.serving import MicroBatchQueue, ServingStats, ShapePredictor


@pytest.fixture
def predictor(two_class_data):
    X, _ = two_class_data
    model = KShape(n_clusters=2, random_state=0).fit(X)
    return ShapePredictor.from_model(model)


class TestManualMode:
    """autostart=False: deterministic batching driven by flush()."""

    def test_flush_answers_everything(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=8, autostart=False)
        futures = [queue.submit(x) for x in X]
        assert not any(f.done() for f in futures)
        assert queue.flush() == X.shape[0]
        labels = np.array([f.result()[0] for f in futures])
        dists = np.array([f.result()[1] for f in futures])
        reference = predictor.predict_full(X)
        assert np.array_equal(labels, reference.labels)
        assert np.array_equal(dists, reference.distances)

    def test_batches_respect_max_batch(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=8, autostart=False)
        for x in X:  # 20 requests -> batches of 8, 8, 4
            queue.submit(x)
        queue.flush()
        stats = queue.stats()
        assert stats.batches == 3
        assert stats.max_batch_size == 8
        assert stats.batch_occupancy == X.shape[0]
        assert stats.completed == stats.requests == X.shape[0]
        assert stats.mean_batch_size == pytest.approx(X.shape[0] / 3)

    def test_blocking_predict_flushes(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        label, dist = queue.predict(X[0])
        reference = predictor.predict_full(X[:1])
        assert label == reference.labels[0]
        assert dist == reference.distances[0]

    def test_flush_empty_queue(self, predictor):
        queue = MicroBatchQueue(predictor, autostart=False)
        assert queue.flush() == 0


class TestThreadedMode:
    def test_coalesces_and_answers(self, predictor, two_class_data):
        X, _ = two_class_data
        with MicroBatchQueue(predictor, max_batch=4) as queue:
            futures = [queue.submit(x) for x in X]
            labels = np.array([f.result(timeout=5)[0] for f in futures])
        assert np.array_equal(labels, predictor.predict(X))
        stats = queue.stats()
        assert stats.completed == X.shape[0]
        assert stats.batches >= int(np.ceil(X.shape[0] / 4))
        assert stats.max_batch_size <= 4
        assert stats.total_latency_s > 0
        assert stats.max_latency_s >= stats.mean_latency_s

    def test_latency_flush_of_partial_batch(self, predictor, two_class_data):
        X, _ = two_class_data
        with MicroBatchQueue(predictor, max_batch=1000) as queue:
            future = queue.submit(X[0])
            # Far fewer than max_batch requests: an idle collector runs
            # the lone request at once instead of waiting for company.
            assert future.result(timeout=5)[0] == predictor.predict(X[:1])[0]
            assert queue.stats().max_batch_size == 1

    def test_backlog_forms_full_batches(self):
        """Requests queued behind a running batch go out max_batch at a time."""
        entered, release = threading.Event(), threading.Event()
        sizes = []

        class BlockingStub:
            m = 8

            def predict_full(self, X):
                sizes.append(X.shape[0])
                if len(sizes) == 1:
                    entered.set()
                    assert release.wait(timeout=10)
                n = X.shape[0]
                return SimpleNamespace(labels=np.zeros(n), distances=X[:, 0])

        queue = MicroBatchQueue(BlockingStub(), max_batch=32)
        X = np.arange(65 * 8, dtype=np.float64).reshape(65, 8)
        futures = [queue.submit(X[0])]
        assert entered.wait(timeout=10)
        futures += [queue.submit(x) for x in X[1:]]
        time.sleep(0.05)  # the backlog ages, as it does under overload
        release.set()
        queue.close()
        # FIFO order and bit-identical answers survive the coalescing.
        assert [f.result(timeout=5)[1] for f in futures] == list(X[:, 0])
        assert sizes == [1, 32, 32]
        stats = queue.stats()
        assert stats.batches == 3
        assert stats.max_batch_size == 32

    def test_close_drains_backlog(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=4)
        futures = [queue.submit(x) for x in X[:3]]  # below max_batch
        queue.close()
        assert all(f.done() for f in futures)
        assert queue.stats().completed == 3

    def test_submit_after_close_raises(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor)
        queue.close()
        with pytest.raises(InvalidParameterError):
            queue.submit(X[0])
        queue.close()  # idempotent


class TestErrorPropagation:
    def test_invalid_series_rejected_at_submit(self, predictor):
        queue = MicroBatchQueue(predictor, autostart=False)
        with pytest.raises(InvalidParameterError):
            queue.submit([np.nan, 1.0, 2.0])

    def test_wrong_length_propagates_through_future(
        self, predictor, two_class_data
    ):
        from repro.exceptions import ShapeMismatchError

        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        future = queue.submit(X[0][:-1])
        queue.flush()
        with pytest.raises(ShapeMismatchError):
            future.result()


class TestValidation:
    def test_bad_policy_raises(self, predictor):
        with pytest.raises(InvalidParameterError):
            MicroBatchQueue(predictor, max_batch=0)

    def test_stats_snapshot_is_detached(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        snapshot = queue.stats()
        queue.submit(X[0])
        queue.flush()
        assert snapshot.requests == 0  # old snapshot unchanged
        assert queue.stats().requests == 1
        assert isinstance(snapshot, ServingStats)

    def test_as_dict_has_derived_rates(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        queue.submit(X[0])
        queue.flush()
        payload = queue.stats().as_dict()
        assert payload["mean_batch_size"] == 1.0
        assert payload["throughput"] >= 0
        assert set(payload) >= {"requests", "batches", "kernel_s"}


class TestLatencyAndDepthGauges:
    def test_queue_depth_tracks_backlog(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=4, autostart=False)
        for row in X[:6]:
            queue.submit(row)
        assert queue.stats().queue_depth == 6
        assert queue.stats().max_queue_depth == 6
        queue.flush()
        stats = queue.stats()
        assert stats.queue_depth == 0  # gauge drains with the backlog
        assert stats.max_queue_depth == 6  # high-water mark persists

    def test_depth_released_on_failure(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        future = queue.submit(X[0][:-5])  # wrong length fails in the kernel
        queue.flush()
        with pytest.raises(Exception):
            future.result(timeout=1)
        assert queue.stats().queue_depth == 0

    def test_percentiles_from_reservoir(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=4, autostart=False)
        for row in X[:12]:
            queue.submit(row)
        queue.flush()
        stats = queue.stats()
        assert len(stats.recent_latencies) == 12
        assert 0.0 < stats.p50_latency_s <= stats.p99_latency_s
        assert stats.p99_latency_s <= stats.max_latency_s + 1e-12
        assert stats.latency_percentile(0.0) <= stats.latency_percentile(100.0)

    def test_percentiles_empty_reservoir(self):
        stats = ServingStats()
        assert stats.p50_latency_s == 0.0
        assert stats.p99_latency_s == 0.0

    def test_percentile_math_matches_numpy(self):
        stats = ServingStats()
        samples = [0.001 * i for i in range(1, 101)]
        stats.recent_latencies.extend(samples)
        assert stats.p50_latency_s == pytest.approx(
            float(np.percentile(samples, 50))
        )
        assert stats.latency_percentile(90) == pytest.approx(
            float(np.percentile(samples, 90))
        )

    def test_as_dict_excludes_raw_reservoir(self, predictor, two_class_data):
        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        queue.submit(X[0])
        queue.flush()
        payload = queue.stats().as_dict()
        assert "recent_latencies" not in payload
        assert payload["p50_latency_s"] > 0.0
        assert payload["p99_latency_s"] >= payload["p50_latency_s"]
        assert payload["max_queue_depth"] == 1


class TestGracefulShutdown:
    def test_close_drain_false_rejects_backlog(self, predictor, two_class_data):
        from repro.exceptions import QueueClosedError

        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=4, autostart=False)
        futures = [queue.submit(x) for x in X[:6]]
        queue.close(drain=False)
        for future in futures:
            assert future.done()
            with pytest.raises(QueueClosedError):
                future.result()
        stats = queue.stats()
        assert stats.rejected == 6
        assert stats.completed == 0
        assert stats.queue_depth == 0  # gauge released either way

    def test_close_drain_true_is_deterministic(self, predictor, two_class_data):
        """Drained answers equal a plain flush's answers, bit for bit."""
        X, _ = two_class_data
        reference = predictor.predict_full(X)
        queue = MicroBatchQueue(predictor, max_batch=4, autostart=False)
        futures = [queue.submit(x) for x in X]
        queue.close(drain=True)
        for i, future in enumerate(futures):
            label, dist = future.result()
            assert label == int(reference.labels[i])
            assert dist == float(reference.distances[i])
        stats = queue.stats()
        assert stats.completed == X.shape[0]
        assert stats.rejected == 0

    def test_late_submit_raises_queue_closed(self, predictor, two_class_data):
        from repro.exceptions import QueueClosedError

        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, autostart=False)
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(X[0])
        # QueueClosedError stays an InvalidParameterError subtype, so
        # callers catching the broad type keep working.
        assert issubclass(QueueClosedError, InvalidParameterError)

    def test_threaded_close_drain_false(self, predictor, two_class_data):
        from repro.exceptions import QueueClosedError

        X, _ = two_class_data
        queue = MicroBatchQueue(predictor, max_batch=1000)
        futures = [queue.submit(x) for x in X[:3]]
        queue.close(drain=False)
        resolved = [f for f in futures if f.done()]
        assert len(resolved) == 3
        outcomes = set()
        for future in futures:
            try:
                future.result()
                outcomes.add("answered")
            except QueueClosedError:
                outcomes.add("rejected")
        # Every future resolved one way or the other — none left hanging.
        assert outcomes <= {"answered", "rejected"}
