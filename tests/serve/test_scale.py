"""Tests for the scaled serving tier (repro.serve.scale WorkerPool)."""

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine import CoreCFStrategy
from repro.serve import (
    ArtifactStore,
    AsyncExplanationService,
    ExplanationService,
    LRUResultCache,
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

    @pytest.mark.parametrize("flush_kwargs, match", [
        ({"n_candidates": 0}, "n_candidates must be an int >= 1"),
        ({"n_candidates": 2.5}, "n_candidates must be an int >= 1"),
        ({"n_candidate": 8}, "unknown flush_kwargs"),
        ({"n_candidates": 8, "rng": 0}, "unknown flush_kwargs"),
    ])
    def test_rejects_bad_flush_kwargs_at_construction(self, store, flush_kwargs, match):
        # checked here, or a bad value would fail every request of the first batch
        with pytest.raises(ValueError, match=match):
            WorkerPool(store, "tiny", flush_kwargs=flush_kwargs)

    @pytest.mark.parametrize("value", [2.7, True])
    @pytest.mark.parametrize("name", ["n_replicas", "cache_size", "capacity", "max_batch"])
    def test_serving_counts_are_checked_not_truncated(
            self, store, tiny_pipeline, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an int"):
            if name == "n_replicas":
                WorkerPool(store, "tiny", n_replicas=value).close()
            elif name == "cache_size":
                ExplanationService(tiny_pipeline, cache_size=value)
            elif name == "capacity":
                LRUResultCache(value)
            else:
                stub = SimpleNamespace(encoder=SimpleNamespace(n_encoded=4))
                AsyncExplanationService(stub, max_batch=value)

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
        rows = explain_rows[:8]
        reference = sync._answer_block(CoreCFStrategy(sync.explainer, n_candidates=8),
                                       rows, 1 - sync.explainer.blackbox.predict(rows))
        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            results = pool.flush_rows(explain_rows[:8])
        for got, want in zip(results, reference):
            np.testing.assert_array_equal(got["x_cf"], want["x_cf"])
            assert got["predicted"] == want["predicted"]
            assert got["valid"] == want["valid"]

    def test_failed_shard_flush_leaves_no_ticket_behind(self, store, explain_rows,
                                                         monkeypatch):
        with WorkerPool(store, "tiny", n_replicas=1) as pool:
            replica = pool.replicas[0]

            def broken(*args, **kwargs):
                raise RuntimeError("runner failed")

            monkeypatch.setattr(replica.runner, "run", broken)
            with pytest.raises(RuntimeError, match="runner failed"):
                pool.flush_rows(explain_rows[:4])
            monkeypatch.undo()
            assert len(pool.flush_rows(explain_rows[4:6])) == 2
            assert replica.stats["rows_coalesced"] == 2

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
            strategy = pool._shard_strategy
            assert strategy.n_candidates == 4
            for replica in pool.replicas[1:]:
                assert replica.runner is leader.runner
                assert replica.served_strategy is leader.served_strategy
                assert replica.pipeline is leader.pipeline
                assert replica.cache_fingerprint is leader.cache_fingerprint
            assert len({id(replica.cache) for replica in pool.replicas}) == 3
            # every replica flushes through the one shard strategy and
            # the one shared runner
            pool.flush_rows(explain_rows[:24])
            assert pool._shard_strategy is strategy
            for replica in pool.replicas:
                assert replica.runner is leader.runner

    def test_shared_weights_can_be_disabled(self, store, explain_rows):
        # the removed options still accept their one remaining value
        with WorkerPool(store, "tiny", n_replicas=2, backend="thread",
                        shared_weights=False) as pool:
            assert len(pool.explain_batch(explain_rows[:4]).x_cf) == 4

    @pytest.mark.parametrize("entry", ["flush_rows", "explain_batch"])
    def test_closed_pool_refuses_requests(self, store, explain_rows, entry):
        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            pass
        with pytest.raises(RuntimeError, match="WorkerPool is closed"):
            getattr(pool, entry)(explain_rows[:4])
        assert pool.stats()["aggregate"]["requests"] == 0


class TestNoHandOff:
    """The pool answers every shard on the caller's thread and starts none."""

    def test_flush_rows_answers_every_shard_on_the_callers_thread(
            self, store, explain_rows, monkeypatch):
        threads = []
        answer_block = ExplanationService._answer_block

        def recording(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return answer_block(self, *args, **kwargs)

        monkeypatch.setattr(ExplanationService, "_answer_block", recording)
        with WorkerPool(store, "tiny", n_replicas=2) as pool:
            rows = explain_rows[:16]
            shards = {pool.route(row, 1) for row in rows}
            assert len(pool.flush_rows(rows, 1)) == len(rows)
        assert len(shards) == 2
        assert threads == [threading.get_ident()] * len(shards)

    def test_serving_from_a_pool_starts_no_thread(self, store, explain_rows):
        before = set(threading.enumerate())
        with WorkerPool(store, "tiny", n_replicas=3) as pool:
            pool.flush_rows(explain_rows[:8])
            pool.explain_batch(explain_rows[8:16])
            assert set(threading.enumerate()) == before


class TestClone:
    def test_clone_shares_execution_state_not_cache(self, tiny_pipeline, explain_rows):
        leader = ExplanationService(tiny_pipeline, cache_size=16)
        leader.explain_batch(explain_rows[:3])
        clone = leader.clone()
        assert clone.pipeline is leader.pipeline
        assert clone.runner is leader.runner
        assert clone.served_strategy is leader.served_strategy
        assert clone.cache_fingerprint is leader.cache_fingerprint
        # its own cache (same capacity), lock and counters
        assert clone.cache is not leader.cache
        assert clone._lock is not leader._lock
        assert clone.cache.capacity == 16
        assert clone.stats["rows_served"] == 0 and clone.stats["cache_size"] == 0
        clone.explain_batch(explain_rows[:3])
        assert clone.stats["cache_misses"] == 3
        assert leader.stats["rows_served"] == 3


class TestThreadSafety:
    def test_concurrent_flush_rows_lose_no_rows(self, store, explain_rows):
        """Concurrent flush_rows callers: every row answered, counted once."""
        n_threads, per_thread = 6, 4
        # overlapping 3-row blocks, so threads race on the same replicas
        blocks = [[explain_rows[start:start + 3] for start in range(slot, slot + per_thread)]
                  for slot in range(n_threads)]
        answers = [None] * n_threads
        gate = threading.Barrier(n_threads)

        def flusher(slot, pool):
            gate.wait()
            answers[slot] = [answer for rows in blocks[slot] for answer in pool.flush_rows(rows)]

        with WorkerPool(store, "tiny", n_replicas=2,
                        flush_kwargs={"n_candidates": 2}) as pool:
            threads = [threading.Thread(target=flusher, args=(slot, pool))
                       for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            stats = pool.stats()
            blackbox = pool.replicas[0].explainer.blackbox
            routed = [0] * pool.n_replicas
            for rows in (rows for slot in blocks for rows in slot):
                for row, desired in zip(rows, 1 - blackbox.predict(rows)):
                    routed[pool.route(row, int(desired))] += 1

        assert [len(got) for got in answers] == [per_thread * 3] * n_threads  # nothing lost
        assert all(answer["x_cf"].shape == explain_rows[0].shape
                   for got in answers for answer in got)
        # each replica counted every row routed to it exactly once
        assert [entry["rows_coalesced"] for entry in stats["per_replica"]] == routed
        assert stats["aggregate"]["rows_coalesced"] == n_threads * per_thread * 3

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
