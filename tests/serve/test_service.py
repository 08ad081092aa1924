"""ExplanationService tests: cache correctness, block answers, parity."""

import numpy as np
import pytest

from repro.density import KnnDensity
from repro.engine import CoreCFStrategy
from repro.serve import ArtifactStore, ExplanationService, WorkerPool


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
    def test_answer_block_answers_every_row_in_one_pass(self, service, explain_rows):
        rows = explain_rows[:6]
        strategy = CoreCFStrategy(service.explainer, n_candidates=5,
                                  rng=np.random.default_rng(11))
        desired = 1 - service.explainer.blackbox.predict(rows)
        answers = service._answer_block(strategy, rows, desired)
        assert len(answers) == 6
        assert service.stats["flushes"] == 1
        assert service.stats["rows_coalesced"] == 6
        for answer in answers:
            assert answer["x_cf"].shape == explain_rows[0].shape
            assert 0 <= answer["chosen"] < 5

    def test_flush_matches_direct_candidate_sweep(self, service, explain_rows):
        from tests.helpers.loops import sweep_candidate_sets
        from tests.helpers.parity import pick_candidate

        rows = explain_rows[:4]
        desired = 1 - service.explainer.blackbox.predict(rows)
        answers = service._answer_block(
            CoreCFStrategy(service.explainer, n_candidates=6, rng=np.random.default_rng(3)),
            rows, desired)

        candidate_sets = sweep_candidate_sets(
            service.explainer,
            rows,
            n_candidates=6,
            desired=desired,
            rng=np.random.default_rng(3),
        )
        for answer, candidate_set in zip(answers, candidate_sets):
            index = pick_candidate(candidate_set)
            assert np.array_equal(answer["x_cf"], candidate_set.candidates[index])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_density_weight_fails_where_it_is_set(self, tiny_pipeline, bad):
        # the weight is set once, at construction, and checked there
        with pytest.raises(ValueError, match="density_weight must be finite and positive"):
            ExplanationService(tiny_pipeline, density_weight=bad)


class TestConfigurationAtConstruction:
    """A bad serving configuration fails when the service is built."""

    @pytest.fixture(scope="class")
    def store(self, tiny_pipeline, tmp_path_factory):
        store = ArtifactStore(tmp_path_factory.mktemp("config"))
        store.save(tiny_pipeline, name="p")
        return store

    @pytest.fixture(scope="class")
    def density(self, tiny_pipeline):
        return KnnDensity(k_neighbors=5).fit(tiny_pipeline.bundle.split("train")[0][:150])

    @pytest.mark.parametrize("surface", ["service", "pool"])
    @pytest.mark.parametrize("name, value", [
        ("robust_quorum", 0), ("robust_quorum", 2.0),
        ("density_candidates", 0), ("density_candidates", 2.7),
    ])
    def test_bad_configuration_fails_at_construction(
            self, tiny_pipeline, store, density, surface, name, value):
        config = {name: value}
        with pytest.raises(ValueError, match=f"{name} must be"):
            if surface == "service":
                ExplanationService(tiny_pipeline, density=density, **config)
            else:
                WorkerPool(store, "p", n_replicas=1, overlays={"density": density},
                           **config).close()


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
