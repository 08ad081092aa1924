"""Tests for the coalescing asyncio front (repro.serve.scale)."""

import asyncio
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import CoreCFStrategy
from repro.serve import (
    ArtifactStore,
    AsyncExplanationService,
    ExplanationService,
    WorkerPool,
)
from repro.utils.validation import SchemaMismatchError


@pytest.fixture(scope="module")
def store(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("async-store"))
    store.save(tiny_pipeline, name="tiny")
    return store


class TestAsyncFront:
    def test_explain_returns_result_dict(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.001)
            result = await front.explain(explain_rows[0])
            await front.aclose()
            return result

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            result = asyncio.run(scenario(pool))
        assert result["x_cf"].shape == explain_rows[0].shape
        assert result["predicted"] in (0, 1)
        assert isinstance(result["valid"], bool)

    def test_concurrent_requests_coalesce_into_one_flush(
            self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.05)
            results = await front.explain_many(explain_rows[:8])
            stats = front.stats
            await front.aclose()
            return results, stats

        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            results, stats = asyncio.run(scenario(pool))
        assert len(results) == 8
        assert stats["front"]["requests"] == 8
        assert stats["front"]["flushes"] == 1
        assert stats["front"]["rows_coalesced"] == 8
        assert stats["front"]["mean_batch_size"] == 8.0
        assert stats["front"]["queued"] == 0

    def test_single_replica_async_parity_with_sync_service(
            self, store, explain_rows):
        sync = ExplanationService.warm_start(store, "tiny", cache_size=0)
        rows = explain_rows[:8]
        reference = sync._answer_block(CoreCFStrategy(sync.explainer, n_candidates=8),
                                       rows, 1 - sync.explainer.blackbox.predict(rows))

        async def scenario(pool):
            front = AsyncExplanationService(
                pool, coalesce_window=0.05, max_batch=8)
            results = await front.explain_many(explain_rows[:8])
            await front.aclose()
            return results

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            results = asyncio.run(scenario(pool))
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got["x_cf"], want["x_cf"])
            assert got["predicted"] == want["predicted"]
            assert got["valid"] == want["valid"]

    def test_bad_desired_fails_its_request_not_the_batch(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.05)
            good = asyncio.ensure_future(front.explain(explain_rows[0], desired=1))
            with pytest.raises(ValueError, match="desired must contain only 0/1"):
                await front.explain(explain_rows[1], desired=2)
            result = await good
            stats = front.stats
            await front.aclose()
            return result, stats

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            result, stats = asyncio.run(scenario(pool))
        assert result["desired"] == 1
        assert stats["front"]["requests"] == 1 and stats["front"]["rows_coalesced"] == 1

    def test_max_batch_forces_early_drain(self, store, explain_rows):
        async def scenario(pool):
            # window far beyond the test budget: only the max_batch
            # trigger can drain the queue in time
            front = AsyncExplanationService(
                pool, coalesce_window=30.0, max_batch=4)
            results = await asyncio.wait_for(
                front.explain_many(explain_rows[:4]), timeout=10.0)
            await front.aclose()
            return results

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            results = asyncio.run(scenario(pool))
        assert len(results) == 4

    def test_timeout_raises_timeout_error(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0)
            with pytest.raises(TimeoutError, match="coalesce"):
                await front.explain(explain_rows[0], timeout=0.01)
            await front.aclose()

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            asyncio.run(scenario(pool))

    def test_timed_out_requests_leave_their_batch(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.2)
            outcomes = await asyncio.gather(
                *(front.explain(row, timeout=0.001) for row in explain_rows[:4]),
                return_exceptions=True)
            await front.aclose()
            return outcomes, front.stats

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            outcomes, stats = asyncio.run(scenario(pool))
        assert all(isinstance(outcome, TimeoutError) for outcome in outcomes)
        # no row was computed for a request nobody awaits any more
        assert stats["front"]["requests"] == 4
        assert stats["front"]["flushes"] == 0
        assert stats["front"]["rows_coalesced"] == 0
        assert stats["pool"]["aggregate"]["rows_coalesced"] == 0

    def test_only_live_requests_are_computed(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.2)
            live = asyncio.ensure_future(front.explain(explain_rows[0]))
            with pytest.raises(TimeoutError):
                await front.explain(explain_rows[1], timeout=0.001)
            result = await live
            await front.aclose()
            return result, front.stats

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            result, stats = asyncio.run(scenario(pool))
            (alone,) = pool.flush_rows(explain_rows[0])
        np.testing.assert_array_equal(result["x_cf"], alone["x_cf"])
        assert stats["front"]["flushes"] == 1
        assert stats["front"]["rows_coalesced"] == 1
        assert stats["pool"]["aggregate"]["rows_coalesced"] == 1

    def test_aclose_serves_queued_requests(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0)
            task = asyncio.ensure_future(front.explain(explain_rows[0]))
            await asyncio.sleep(0)  # let the request enqueue
            await front.aclose()  # drains — the request is served, not lost
            return await task

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            result = asyncio.run(scenario(pool))
        assert result["x_cf"].shape == explain_rows[0].shape

    def test_explain_after_aclose_fails_without_arming_a_timer(
            self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0)
            await front.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await front.explain(explain_rows[0])
            return front

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            front = asyncio.run(scenario(pool))
        assert front._drain_handle is None
        assert front.stats["front"]["requests"] == 0
        assert front.stats["front"]["queued"] == 0

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_non_finite_coalesce_window_is_rejected(self, window):
        # such a window never fires: a batch short of max_batch would hang
        pool = SimpleNamespace(encoder=SimpleNamespace(n_encoded=4))
        with pytest.raises(ValueError, match="coalesce_window must be finite"):
            AsyncExplanationService(pool, coalesce_window=window)

    def test_batch_is_flushed_on_the_event_loop_thread(self, store, explain_rows,
                                                       monkeypatch):
        flush_threads = []

        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0, max_batch=4)
            results = await asyncio.wait_for(front.explain_many(explain_rows[:4]), 10.0)
            await front.aclose()
            return results, threading.get_ident()

        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            flush_rows = pool.flush_rows

            def recording(*args, **kwargs):
                flush_threads.append(threading.get_ident())
                return flush_rows(*args, **kwargs)

            monkeypatch.setattr(pool, "flush_rows", recording)
            results, loop_thread = asyncio.run(scenario(pool))
        assert len(results) == 4
        assert flush_threads == [loop_thread]

    def test_desired_target_is_honoured(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.001)
            result = await front.explain(explain_rows[0], desired=1)
            await front.aclose()
            return result

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            result = asyncio.run(scenario(pool))
        assert result["desired"] == 1

    def test_sequential_requests_drain_independently(
            self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.001)
            first = await front.explain(explain_rows[0])
            second = await front.explain(explain_rows[1])
            stats = front.stats
            await front.aclose()
            return first, second, stats

        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            first, second, stats = asyncio.run(scenario(pool))
        assert first["x_cf"].shape == second["x_cf"].shape
        assert stats["front"]["flushes"] == 2
        assert stats["pool"]["aggregate"]["rows_coalesced"] == 2

    def test_explain_many_broadcasts_and_checks_desired(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.001)
            with pytest.raises(ValueError, match=r"desired \(3\) and rows \(5\)"):
                await front.explain_many(explain_rows[:5], desired=[1, 1, 1])
            queued = front.stats["front"]["requests"]
            results = await front.explain_many(explain_rows[:5], desired=1)
            await front.aclose()
            return queued, results

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            queued, results = asyncio.run(scenario(pool))
        assert queued == 0  # the mismatch raised before anything queued
        assert [result["desired"] for result in results] == [1] * 5


class TestBadRows:
    """One bad row fails its own request; the rest of its batch is answered.

    Every wait is bounded: a regression hangs the batch rather than
    failing it.
    """

    def test_wrong_width_row_fails_in_explain(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=0.05)
            good = [asyncio.ensure_future(front.explain(row)) for row in explain_rows[:3]]
            with pytest.raises(SchemaMismatchError, match="row has 5 columns"):
                await asyncio.wait_for(front.explain(explain_rows[3][:5]), 10.0)
            results = await asyncio.wait_for(asyncio.gather(*good), 10.0)
            stats = front.stats["front"]
            await front.aclose()
            return results, stats

        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            results, stats = asyncio.run(scenario(pool))
        assert [r["x_cf"].shape for r in results] == [explain_rows[0].shape] * 3
        assert stats["requests"] == 3 and stats["rows_coalesced"] == 3

    def test_nan_row_fails_only_its_own_request(self, store, explain_rows):
        rows = explain_rows[:4].copy()
        rows[2, 0] = np.nan

        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0, max_batch=4)
            results = await asyncio.wait_for(asyncio.gather(
                *(front.explain(row) for row in rows), return_exceptions=True), 10.0)
            stats = front.stats["front"]
            await front.aclose()
            return results, stats

        with WorkerPool(store, "tiny", n_replicas=2,
                        flush_kwargs={"n_candidates": 4}) as pool:
            results, stats = asyncio.run(scenario(pool))
            # the good rows were answered as the batch they formed
            reference = pool.flush_rows(rows[[0, 1, 3]])
        assert isinstance(results[2], SchemaMismatchError)
        assert "NaN" in str(results[2])
        for got, want in zip([results[0], results[1], results[3]], reference):
            np.testing.assert_array_equal(got["x_cf"], want["x_cf"])
            assert got["n_usable"] == want["n_usable"]
        assert stats["flushes"] == 1 and stats["rows_coalesced"] == 3

    def test_batch_building_error_resolves_every_request(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0)
            good = asyncio.ensure_future(front.explain(explain_rows[0]))
            await asyncio.sleep(0)  # let the request enqueue
            # a malformed entry that bypassed explain()'s checks
            bad = asyncio.get_running_loop().create_future()
            front._queue.append((explain_rows[1][:5], None, bad))
            await asyncio.wait_for(front.drain(), 10.0)
            with pytest.raises(ValueError):
                await asyncio.wait_for(good, 10.0)
            error = bad.exception()
            # the front keeps serving after the failed batch
            later = asyncio.ensure_future(front.explain(explain_rows[2]))
            await asyncio.sleep(0)
            await asyncio.wait_for(front.drain(), 10.0)
            answer = await later
            await front.aclose()
            return error, answer

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            error, answer = asyncio.run(scenario(pool))
        assert isinstance(error, ValueError)
        assert answer["x_cf"].shape == explain_rows[2].shape
