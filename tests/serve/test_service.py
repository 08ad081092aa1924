"""ExplanationService tests: cache correctness, micro-batching, parity."""

import numpy as np
import pytest

from repro.serve import ArtifactStore, ExplanationService


@pytest.fixture()
def service(tiny_pipeline):
    return ExplanationService(tiny_pipeline, cache_size=256)


class TestWarmStartParity:
    def test_matches_one_shot_pipeline(self, tiny_pipeline, explain_rows, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(tiny_pipeline, name="p")
        service = ExplanationService.warm_start(store, "p")
        warm = service.explain_batch(explain_rows)
        one_shot = tiny_pipeline.explainer.explain(explain_rows)
        assert np.array_equal(warm.x_cf, one_shot.x_cf)
        assert np.array_equal(warm.desired, one_shot.desired)
        assert np.array_equal(warm.valid, one_shot.valid)
        assert np.array_equal(warm.feasible, one_shot.feasible)


class TestResultCache:
    def test_repeat_batch_served_from_cache(self, service, explain_rows):
        first = service.explain_batch(explain_rows)
        assert service.cache.stats["misses"] == len(explain_rows)
        second = service.explain_batch(explain_rows)
        assert service.cache.stats["hits"] == len(explain_rows)
        assert np.array_equal(first.x_cf, second.x_cf)
        assert np.array_equal(first.valid, second.valid)
        assert np.array_equal(first.feasible, second.feasible)

    def test_interleaved_batches_are_consistent(self, service, explain_rows):
        full = service.explain_batch(explain_rows)
        shuffled = np.random.default_rng(0).permutation(len(explain_rows))
        partial = service.explain_batch(explain_rows[shuffled])
        assert np.array_equal(partial.x_cf, full.x_cf[shuffled])

    def test_mixed_hit_miss_batch(self, service, explain_rows):
        warm_half = service.explain_batch(explain_rows[:12])
        hits_before = service.cache.stats["hits"]
        mixed = service.explain_batch(explain_rows)
        assert service.cache.stats["hits"] == hits_before + 12
        assert np.array_equal(mixed.x_cf[:12], warm_half.x_cf)
        fresh = ExplanationService(service.pipeline, cache_size=0)
        np.testing.assert_allclose(
            mixed.x_cf, fresh.explain_batch(explain_rows).x_cf, rtol=1e-10
        )

    def test_desired_is_part_of_the_key(self, service, explain_rows):
        rows = explain_rows[:6]
        to_one = service.explain_batch(rows, desired=np.ones(6, dtype=int))
        to_zero = service.explain_batch(rows, desired=np.zeros(6, dtype=int))
        assert service.cache.stats["misses"] == 12
        assert not np.array_equal(to_one.x_cf, to_zero.x_cf)

    def test_eviction_under_small_capacity(self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline, cache_size=4)
        service.explain_batch(explain_rows[:8])
        assert service.cache.stats["size"] == 4
        assert service.cache.stats["evictions"] == 4

    def test_cache_disabled(self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline, cache_size=0)
        service.explain_batch(explain_rows[:4])
        service.explain_batch(explain_rows[:4])
        assert service.cache.stats["size"] == 0
        assert service.cache.stats["hits"] == 0

    def test_desired_length_mismatch(self, service, explain_rows):
        with pytest.raises(ValueError, match="counts differ"):
            service.explain_batch(explain_rows[:4], desired=[1, 0])


class TestMicroBatching:
    def test_flush_resolves_all_tickets_in_one_sweep(self, service, explain_rows):
        tickets = [service.submit(row) for row in explain_rows[:6]]
        assert service.pending == 6
        assert not tickets[0].ready
        resolved = service.flush(n_candidates=5, rng=np.random.default_rng(11))
        assert resolved == tickets
        assert service.pending == 0
        assert service.stats["flushes"] == 1
        assert service.stats["rows_coalesced"] == 6
        for ticket in tickets:
            result = ticket.result()
            assert result["x_cf"].shape == explain_rows[0].shape
            assert 0 <= result["chosen"] < 5

    def test_flush_matches_direct_candidate_sweep(self, service, explain_rows):
        from tests.helpers.loops import sweep_candidate_sets
        from tests.helpers.parity import pick_candidate

        rows = explain_rows[:4]
        tickets = [service.submit(row) for row in rows]
        service.flush(n_candidates=6, rng=np.random.default_rng(3))

        desired = 1 - service.explainer.blackbox.predict(rows)
        candidate_sets = sweep_candidate_sets(
            service.explainer,
            rows,
            n_candidates=6,
            desired=desired,
            rng=np.random.default_rng(3),
        )
        for ticket, candidate_set in zip(tickets, candidate_sets):
            index = pick_candidate(candidate_set)
            assert np.array_equal(
                ticket.result()["x_cf"], candidate_set.candidates[index]
            )

    def test_explicit_desired_ticket(self, service, explain_rows):
        ticket = service.submit(explain_rows[0], desired=1)
        service.flush(rng=np.random.default_rng(0))
        assert ticket.result()["desired"] == 1

    @pytest.mark.parametrize("bad", [2, -1, 0.7])
    def test_bad_desired_fails_its_submit_not_the_flush(self, service, explain_rows, bad):
        good = service.submit(explain_rows[0], desired=1)
        with pytest.raises(ValueError, match="desired must contain only 0/1"):
            service.submit(explain_rows[1], desired=bad)
        assert service.pending == 1
        assert service.flush(rng=np.random.default_rng(0)) == [good]
        assert good.result()["desired"] == 1

    def test_unresolved_ticket_raises(self, service, explain_rows):
        ticket = service.submit(explain_rows[0])
        with pytest.raises(RuntimeError, match="not resolved"):
            ticket.result()
        service.flush()

    def test_flush_with_nothing_pending(self, service):
        assert service.flush() == []
        assert service.stats["flushes"] == 0

    def test_bad_flush_keeps_every_ticket_queued(self, service, explain_rows):
        tickets = [service.submit(row) for row in explain_rows[:3]]
        with pytest.raises(ValueError, match="n_candidates must be >= 1"):
            service.flush(n_candidates=0)
        assert service.pending == 3
        assert not any(ticket.ready for ticket in tickets)
        assert service.flush(n_candidates=4) == tickets
        assert all(ticket.ready for ticket in tickets)
        assert service.stats["flushes"] == 1

    def test_failed_run_requeues_its_tickets_first(self, service, explain_rows,
                                                    monkeypatch):
        failed = [service.submit(row) for row in explain_rows[:2]]
        later = []

        def broken(*args, **kwargs):
            # a submit racing the flush lands in the fresh queue
            later.append(service.submit(explain_rows[2]))
            raise RuntimeError("replica lost")

        monkeypatch.setattr(service.runner, "run", broken)
        with pytest.raises(RuntimeError, match="replica lost"):
            service.flush(n_candidates=3)
        monkeypatch.undo()
        assert service.pending == 3
        # the failed flush's tickets go back ahead of the racing submit
        assert service.flush(n_candidates=3) == failed + later

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_density_weight_fails_where_it_is_set(self, tiny_pipeline, service,
                                                      explain_rows, bad):
        # the runner is built lazily, so an unchecked weight would first
        # fail inside a flush, after the queue was swapped out
        with pytest.raises(ValueError, match="density_weight must be finite and positive"):
            ExplanationService(tiny_pipeline, density_weight=bad)
        ticket = service.submit(explain_rows[0])
        with pytest.raises(ValueError, match="density_weight must be finite and positive"):
            service.density_weight = bad
        assert service.density_weight == 1.0
        assert service.flush(n_candidates=3) == [ticket]
        assert ticket.result()["x_cf"].shape == explain_rows[0].shape


class TestStats:
    def test_counters_accumulate(self, service, explain_rows):
        service.explain_batch(explain_rows[:8])
        service.explain_batch(explain_rows[:8])
        stats = service.stats
        assert stats["batches_served"] == 2
        assert stats["rows_served"] == 16
        assert stats["cache_hits"] == 8
        assert stats["cache_misses"] == 8

    def test_service_exposes_pipeline_metadata(self, service):
        assert service.dataset == "adult"
        assert service.encoder is service.explainer.encoder
        assert len(service.fingerprint) == 64
