"""Tests for the scaled serving tier (repro.serve.scale WorkerPool)."""

import threading

import numpy as np
import pytest

from repro.serve import (
    ArtifactStore,
    ExplanationService,
    PendingTicketError,
    WorkerPool,
)


@pytest.fixture(scope="module")
def store(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("scale-store"))
    store.save(tiny_pipeline, name="tiny")
    return store


@pytest.fixture(scope="module")
def sync_service(store):
    return ExplanationService.warm_start(store, "tiny", cache_size=256)


class TestWorkerPool:
    def test_rejects_bad_configuration(self, store):
        with pytest.raises(ValueError, match="backend"):
            WorkerPool(store, "tiny", backend="rocket")
        with pytest.raises(ValueError, match="backend='process' was removed"):
            WorkerPool(store, "tiny", backend="process")
        with pytest.raises(ValueError, match="shared_weights=True was removed"):
            WorkerPool(store, "tiny", shared_weights=True)
        with pytest.raises(ValueError, match="n_replicas"):
            WorkerPool(store, "tiny", n_replicas=0)
        with pytest.raises(ValueError, match="density_weight must be finite"):
            WorkerPool(store, "tiny", density_weight=float("nan"))
        with pytest.raises(ValueError, match="density_weight must be finite"):
            ExplanationService.warm_start(store, "tiny", density_weight=-1.0)

    def test_batch_parity_with_single_service(
            self, store, sync_service, explain_rows):
        reference = sync_service.explain_batch(explain_rows)
        with WorkerPool(store, "tiny", n_replicas=3) as pool:
            result = pool.explain_batch(explain_rows)
        np.testing.assert_array_equal(result.x_cf, reference.x_cf)
        np.testing.assert_array_equal(result.predicted, reference.predicted)
        np.testing.assert_array_equal(result.valid, reference.valid)
        np.testing.assert_array_equal(result.feasible, reference.feasible)

    def test_single_replica_flush_parity(self, store, explain_rows):
        sync = ExplanationService.warm_start(store, "tiny", cache_size=0)
        tickets = [sync.submit(row) for row in explain_rows[:8]]
        sync.flush()
        reference = [ticket.result() for ticket in tickets]
        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            results = pool.flush_rows(explain_rows[:8])
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got["x_cf"], want["x_cf"])
            assert got["predicted"] == want["predicted"]
            assert got["valid"] == want["valid"]

    def test_same_row_routes_to_same_replica(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=4) as pool:
            routes = [pool.route(row) for row in explain_rows]
            assert routes == [pool.route(row) for row in explain_rows]
            assert set(routes) <= set(range(4))

    def test_routing_keeps_caches_hot(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=3, cache_size=256) as pool:
            pool.explain_batch(explain_rows)
            first = pool.stats()["aggregate"]
            assert first["cache_hits"] == 0
            pool.explain_batch(explain_rows)
            second = pool.stats()["aggregate"]
            # every repeat landed on the replica that cached it
            assert second["cache_hits"] - first["cache_hits"] == len(
                explain_rows)
            assert second["cache_misses"] == first["cache_misses"]
            assert second["hit_rate"] == 0.5

    def test_stats_aggregates_per_replica_counters(
            self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            pool.explain_batch(explain_rows)
            pool.flush_rows(explain_rows[:4])
            stats = pool.stats()
        per_replica = stats["per_replica"]
        aggregate = stats["aggregate"]
        assert [entry["replica"] for entry in per_replica] == [0, 1]
        for counter in ("rows_served", "rows_coalesced", "cache_hits",
                        "cache_misses", "flushes", "requests"):
            assert aggregate[counter] == sum(
                entry[counter] for entry in per_replica)
        assert aggregate["requests"] == len(explain_rows) + 4
        assert aggregate["replicas"] == 2
        for entry in per_replica:
            assert 0.0 <= entry["hit_rate"] <= 1.0
            assert entry["mean_batch_size"] >= 0.0

    def test_pool_compiles_one_execution_state(self, store, explain_rows):
        with WorkerPool(store, "tiny", n_replicas=3,
                        flush_kwargs={"n_candidates": 4}) as pool:
            leader = pool.replicas[0]
            for replica in pool.replicas[1:]:
                assert replica.runner is leader.runner
                assert replica.core_strategy is leader.core_strategy
                assert replica.pipeline is leader.pipeline
            # every replica flushes through the one shared strategy, so
            # the shared runner's single-slot memo holds ONE plan
            pool.flush_rows(explain_rows[:12])
            strategy = leader._core_strategy_for(4)
            plan = leader.runner.plan_for(strategy)
            pool.flush_rows(explain_rows[12:24])
            for replica in pool.replicas:
                assert replica._core_strategy_for(4) is strategy
                assert replica.runner.plan_for(strategy) is plan

    def test_shared_weights_can_be_disabled(self, store, explain_rows):
        # the removed options still accept their one remaining value
        with WorkerPool(store, "tiny", n_replicas=2, backend="thread",
                        shared_weights=False) as pool:
            assert len(pool.explain_batch(explain_rows[:4]).x_cf) == 4


class TestAdoptExecution:
    def test_rejects_mismatched_configuration(self, tiny_pipeline):
        leader = ExplanationService(tiny_pipeline)
        sibling = ExplanationService(tiny_pipeline, density_weight=2.0)
        with pytest.raises(ValueError, match="density configuration"):
            sibling.adopt_execution_from(leader)
        quorum = ExplanationService(tiny_pipeline, robust_quorum=0.75)
        with pytest.raises(ValueError, match="robust_quorum"):
            quorum.adopt_execution_from(leader)

    def test_adopts_runner_strategy_and_plan(self, tiny_pipeline, explain_rows):
        leader = ExplanationService(tiny_pipeline)
        sibling = ExplanationService(tiny_pipeline)
        assert sibling.adopt_execution_from(leader) is sibling
        assert sibling.runner is leader.runner
        assert sibling.core_strategy is leader.core_strategy
        leader.explain_batch(explain_rows[:3])
        plan = leader.runner.plan_for(leader.core_strategy)
        sibling.explain_batch(explain_rows[3:6])
        assert sibling.runner.plan_for(sibling.core_strategy) is plan


class TestThreadSafety:
    def test_submit_flush_storm_loses_no_tickets(
            self, tiny_pipeline, explain_rows):
        """Concurrent submitters + flushers: every ticket resolves once."""
        service = ExplanationService(tiny_pipeline, cache_size=0)
        n_threads, per_thread = 6, 12
        all_tickets = [[] for _ in range(n_threads)]
        start_gate = threading.Barrier(n_threads + 2)
        stop_flushing = threading.Event()

        def submitter(slot):
            start_gate.wait()
            for i in range(per_thread):
                row = explain_rows[(slot + i) % len(explain_rows)]
                all_tickets[slot].append(service.submit(row))

        def flusher():
            start_gate.wait()
            while not stop_flushing.is_set():
                service.flush(n_candidates=2)
            service.flush(n_candidates=2)  # drain stragglers

        threads = [threading.Thread(target=submitter, args=(slot,))
                   for slot in range(n_threads)]
        threads.extend(threading.Thread(target=flusher) for _ in range(2))
        for thread in threads:
            thread.start()
        try:
            for thread in threads[:n_threads]:
                thread.join(timeout=30)
        finally:
            stop_flushing.set()
        for thread in threads[n_threads:]:
            thread.join(timeout=30)

        flat = [ticket for slot in all_tickets for ticket in slot]
        assert len(flat) == n_threads * per_thread
        for ticket in flat:
            assert ticket.ready  # nothing lost
            assert ticket.result() is ticket.result()  # resolved once
        assert service.pending == 0
        # nothing duplicated: coalesced rows account for each ticket once
        assert service.stats["rows_coalesced"] == len(flat)

    def test_concurrent_explain_batch_keeps_counters_consistent(
            self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline, cache_size=256)
        n_threads, repeats = 4, 5
        gate = threading.Barrier(n_threads)

        def worker():
            gate.wait()
            for _ in range(repeats):
                service.explain_batch(explain_rows)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        stats = service.stats
        total = n_threads * repeats
        assert stats["batches_served"] == total
        assert stats["rows_served"] == total * len(explain_rows)
        lookups = stats["cache_hits"] + stats["cache_misses"]
        assert lookups == total * len(explain_rows)


class TestPendingTicket:
    def test_unflushed_ticket_raises_typed_error(
            self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline)
        ticket = service.submit(explain_rows[0])
        with pytest.raises(PendingTicketError, match="flush"):
            ticket.result()
        service.flush()
        assert ticket.result()["x_cf"].shape == explain_rows[0].shape
