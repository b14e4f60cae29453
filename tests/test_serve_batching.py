"""Dynamic batcher: coalescing, correctness under concurrency, lifecycle.

The headline property (the ISSUE's concurrency satellite): N threads
calling ``Deployment.submit()`` on random inputs get results identical
(<= 1e-6) to sequential ``infer()``, across worker counts and
``max_batch_size`` settings.
"""

import threading
import time
from concurrent.futures import wait

import numpy as np
import pytest

import repro
from repro.serve import DeploymentSpec, DynamicBatcher


# ---------------------------------------------------------------------------
# DynamicBatcher unit behaviour (cheap fake model, no network involved)
# ---------------------------------------------------------------------------
class _RecordingModel:
    """Identity-ish model recording every batch size it was called with."""

    def __init__(self, delay_seconds=0.0):
        self.batch_sizes = []
        self.delay_seconds = delay_seconds
        self.lock = threading.Lock()

    def __call__(self, images):
        with self.lock:
            self.batch_sizes.append(images.shape[0])
        if self.delay_seconds:
            time.sleep(self.delay_seconds)
        return {"logits": images.sum(axis=tuple(range(1, images.ndim)))[:, None]}


class TestDynamicBatcher:
    def test_single_submit_resolves(self):
        model = _RecordingModel()
        with DynamicBatcher(model, max_batch_size=4, max_queue_delay_ms=1.0) as b:
            result = b.submit(np.full((2, 2), 3.0)).result(timeout=10)
        np.testing.assert_allclose(result["logits"], [12.0])
        assert model.batch_sizes == [1]

    def test_concurrent_submissions_coalesce(self):
        # A slow first batch gives later submissions time to pile up; the
        # dispatcher must then run them together, not one by one.
        model = _RecordingModel(delay_seconds=0.05)
        with DynamicBatcher(model, max_batch_size=16, max_queue_delay_ms=0.0) as b:
            futures = [b.submit(np.ones((2, 2)) * i) for i in range(9)]
            wait(futures, timeout=30)
        for i, future in enumerate(futures):
            np.testing.assert_allclose(future.result()["logits"], [4.0 * i])
        assert sum(model.batch_sizes) == 9
        assert max(model.batch_sizes) > 1, f"never coalesced: {model.batch_sizes}"
        assert b.stats.requests == 9
        assert b.stats.images == 9
        assert b.stats.max_batch_size_seen == max(model.batch_sizes)

    def test_max_batch_size_respected(self):
        model = _RecordingModel(delay_seconds=0.02)
        with DynamicBatcher(model, max_batch_size=3, max_queue_delay_ms=50.0) as b:
            futures = [b.submit(np.ones((2,))) for _ in range(10)]
            wait(futures, timeout=30)
        assert max(model.batch_sizes) <= 3

    def test_mixed_shapes_grouped(self):
        model = _RecordingModel(delay_seconds=0.02)
        with DynamicBatcher(model, max_batch_size=8, max_queue_delay_ms=20.0) as b:
            small = [b.submit(np.ones((2,))) for _ in range(3)]
            large = [b.submit(np.ones((5,))) for _ in range(3)]
            wait(small + large, timeout=30)
        for future in small:
            np.testing.assert_allclose(future.result()["logits"], [2.0])
        for future in large:
            np.testing.assert_allclose(future.result()["logits"], [5.0])

    def test_model_error_propagates_to_futures(self):
        def broken(images):
            raise RuntimeError("kaboom")

        with DynamicBatcher(broken, max_batch_size=4, max_queue_delay_ms=0.0) as b:
            future = b.submit(np.ones((2,)))
            with pytest.raises(RuntimeError, match="kaboom"):
                future.result(timeout=10)
            # The dispatcher survives a failing batch and serves the next one.
            future2 = b.submit(np.ones((2,)))
            with pytest.raises(RuntimeError, match="kaboom"):
                future2.result(timeout=10)

    def test_close_flushes_pending_and_rejects_new(self):
        model = _RecordingModel(delay_seconds=0.01)
        b = DynamicBatcher(model, max_batch_size=2, max_queue_delay_ms=0.0)
        futures = [b.submit(np.ones((2,))) for _ in range(6)]
        b.close()
        for future in futures:  # flushed, not stranded
            np.testing.assert_allclose(future.result(timeout=10)["logits"], [2.0])
        with pytest.raises(RuntimeError, match="closed"):
            b.submit(np.ones((2,)))
        b.close()  # idempotent

    def test_dispatcher_thread_reclaimed(self):
        model = _RecordingModel()
        b = DynamicBatcher(model, name="repro-test-batcher")
        b.submit(np.ones((2,))).result(timeout=10)
        assert any(
            t.name == "repro-test-batcher" for t in threading.enumerate()
        )
        b.close()
        assert not any(
            t.name == "repro-test-batcher" and t.is_alive()
            for t in threading.enumerate()
        )

    def test_close_safe_under_concurrent_callers(self):
        """N racing close() calls: one drain, no exception, no stranded
        future, and every caller returns only after the drain is done."""
        model = _RecordingModel(delay_seconds=0.01)
        b = DynamicBatcher(model, max_batch_size=2, max_queue_delay_ms=0.0)
        futures = [b.submit(np.ones((2,))) for _ in range(8)]
        errors = []

        def closer():
            try:
                b.close()
            except BaseException as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=closer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for future in futures:
            assert future.done(), "racing close() stranded a future"
        stats = b.stats
        assert stats.submitted == stats.shed + stats.requests
        assert stats.requests == (
            stats.completed + stats.expired + stats.failed + stats.cancelled
        )

    def test_non_dict_outputs_supported(self):
        with DynamicBatcher(
            lambda images: images * 2.0, max_batch_size=4, max_queue_delay_ms=0.0
        ) as b:
            result = b.submit(np.ones((3,))).result(timeout=10)
        np.testing.assert_allclose(result, [2.0, 2.0, 2.0])

    def test_rejects_degenerate_knobs(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            DynamicBatcher(lambda x: x, max_batch_size=0)
        with pytest.raises(ValueError, match="max_queue_delay_ms"):
            DynamicBatcher(lambda x: x, max_queue_delay_ms=-1.0)


# ---------------------------------------------------------------------------
# End-to-end concurrency correctness through a real deployment
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("max_batch_size", [1, 4, 8])
def test_concurrent_submit_matches_sequential_infer(max_batch_size):
    spec = DeploymentSpec(
        model="mobilenet_v3_tiny",
        tasks=(("scale", 8), ("shape", 4)),
        max_batch_size=max_batch_size,
        max_queue_delay_ms=5.0,
        seed=11,
    )
    rng = np.random.default_rng(5)
    images = rng.standard_normal((12, 3, 32, 32), dtype=np.float32)
    with repro.deploy(spec) as deployment:
        expected = [
            {name: row[0].copy() for name, row in deployment.infer(img[None]).items()}
            for img in images
        ]

        results = [None] * len(images)
        errors = []
        barrier = threading.Barrier(6)

        def client(thread_index):
            try:
                barrier.wait(timeout=30)
                for i in range(thread_index, len(images), 6):
                    results[i] = deployment.submit(images[i]).result(timeout=60)
            except BaseException as error:
                errors.append(error)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        for i, result in enumerate(results):
            assert set(result) == {"scale", "shape"}
            for name in result:
                np.testing.assert_allclose(
                    result[name], expected[i][name], atol=1e-6,
                    err_msg=f"image {i} task {name} diverged from sequential infer",
                )
        stats = deployment.batching_stats
        assert stats.requests == len(images)
        assert stats.images == len(images)
        assert stats.max_batch_size_seen <= max_batch_size
