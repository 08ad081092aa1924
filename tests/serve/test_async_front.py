"""Tests for the coalescing asyncio front (repro.serve.scale)."""

import asyncio

import numpy as np
import pytest

from repro.serve import (
    ArtifactStore,
    AsyncExplanationService,
    ExplanationService,
    PendingTicketError,
    WorkerPool,
)


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
        tickets = [sync.submit(row) for row in explain_rows[:8]]
        sync.flush()
        reference = [ticket.result() for ticket in tickets]

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

    def test_timeout_maps_to_pending_ticket_error(self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0)
            with pytest.raises(PendingTicketError, match="coalesce"):
                await front.explain(explain_rows[0], timeout=0.01)
            await front.aclose()

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            asyncio.run(scenario(pool))

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

    def test_aclose_fails_stragglers_that_missed_the_drain(
            self, store, explain_rows):
        async def scenario(pool):
            front = AsyncExplanationService(pool, coalesce_window=30.0)
            # a request that lands after the final drain has no batch
            # left to join; aclose must fail it rather than hang it
            straggler = asyncio.get_running_loop().create_future()
            front._queue.append((explain_rows[0], None, straggler))
            await front.aclose()
            return straggler.exception()

        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            error = asyncio.run(scenario(pool))
        assert isinstance(error, PendingTicketError)

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
