"""Unified warm_start overlay spec and the one ``runner.run`` serving path."""

import numpy as np
import pytest

from repro.density import KnnDensity
from repro.engine import CoreCFStrategy, EngineRunner
from repro.serve import ArtifactStore, ExplanationService, WorkerPool
from tests.helpers.parity import assert_bit_identical, pick_candidate, staged_run


@pytest.fixture(scope="module")
def stored(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("service-plan"))
    store.save(tiny_pipeline, name="t")
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.bundle.schema.desired_class)
    density = KnnDensity(k_neighbors=5).fit(
        x_train[y_train == desired_class][:150])
    store.save_overlay("t", "density", density)
    return store, density


class TestWarmStartOverlays:
    def test_overlays_spec_loads_from_store(self, stored):
        store, density = stored
        service = ExplanationService.warm_start(
            store, "t", overlays={"density": "store"})
        assert service.runner.density is not None
        assert service.runner.density.fingerprint() == density.fingerprint()

    def test_overlays_spec_accepts_fitted_models(self, stored):
        store, density = stored
        service = ExplanationService.warm_start(
            store, "t", overlays={"density": density})
        assert service.runner.density is density

    def test_per_kind_kwargs_rejected(self, stored):
        # overlays= is the one spec: a kind can no longer arrive twice
        store, density = stored
        with pytest.raises(TypeError, match="density"):
            ExplanationService.warm_start(store, "t", density=density)

    def test_unknown_overlay_kind_rejected(self, stored):
        store, _ = stored
        with pytest.raises(ValueError, match="unknown overlay kinds"):
            ExplanationService.warm_start(
                store, "t", overlays={"hologram": "store"})


class TestPlanEngine:
    """The service answers every miss and flush through ``runner.run``."""

    def test_rejects_unknown_engine(self, tiny_pipeline):
        # the staged/plan knob is gone: there is one execution path
        with pytest.raises(TypeError, match="engine"):
            ExplanationService(tiny_pipeline, engine="plan")
        with pytest.raises(TypeError, match="plan_backend"):
            ExplanationService(tiny_pipeline, plan_backend="float32")

    def test_plan_engine_serves_staged_results(self, tiny_pipeline,
                                               explain_rows):
        service = ExplanationService(tiny_pipeline)
        served = service.explain_batch(explain_rows)
        reference = staged_run(
            EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox),
            CoreCFStrategy(tiny_pipeline.explainer), explain_rows)
        assert_bit_identical(
            {"x_cf": served.x_cf, "predicted": served.predicted,
             "feasible": served.feasible},
            {"x_cf": reference.x_cf, "predicted": reference.predicted,
             "feasible": reference.feasible},
            context="served vs staged reference")

    def test_cache_key_has_no_engine_component(self, tiny_pipeline):
        service = ExplanationService(tiny_pipeline)
        parts = service.cache_fingerprint.split(":")
        # pipeline:strategy:density:causal:ensemble
        assert parts == [service.fingerprint, "core", "none", "none", "none"]

    def test_served_strategy_is_fixed_at_construction(self, tiny_pipeline, stored):
        # the core path decodes once per row; hosted density gets a
        # sweep of density_candidates for the Figure 3 score to rank
        _, density = stored
        plain = ExplanationService(tiny_pipeline)
        dense = ExplanationService(tiny_pipeline, density=density, density_candidates=5)
        assert plain.served_strategy.n_candidates == 1
        assert dense.served_strategy.n_candidates == 5
        assert dense.runner.density is density

    def test_plan_engine_flush_serves_submitted_rows(self, tiny_pipeline,
                                                     explain_rows, stored):
        # a one-candidate flush proposes the deterministic decode, so a
        # flushed row gets exactly what the batch path answers for it
        store, _ = stored
        batch = ExplanationService(tiny_pipeline, cache_size=0).explain_batch(explain_rows[:3])
        with WorkerPool(store, "t", n_replicas=1, flush_kwargs={"n_candidates": 1}) as pool:
            answers = pool.flush_rows(explain_rows[:3])
        for i, resolved in enumerate(answers):
            np.testing.assert_array_equal(resolved["x_cf"], batch.x_cf[i])
            assert resolved["valid"] == bool(batch.valid[i])
            assert resolved["feasible"] == bool(batch.feasible[i])


class TestCorePathParity:
    """The deleted no-model branches, pinned as references."""

    @staticmethod
    def _batches(explain_rows):
        """Four batches mixing flip (None) and explicit desired specs."""
        rows = explain_rows
        return [
            (rows[:5], None),
            (rows[5:11], [None, 1, None, 0, 1, None]),
            (rows[11:16], np.ones(5, dtype=int)),
            (rows[3:9], [None] * 6),  # overlaps the first batch's rows
        ]

    def test_explain_batch_matches_generate_predict_kernel(self, tiny_pipeline,
                                                           explain_rows):
        service = ExplanationService(tiny_pipeline)
        explainer = tiny_pipeline.explainer
        seen, repeats = set(), 0
        for rows, spec in self._batches(explain_rows):
            served = service.explain_batch(rows, spec)
            flipped = 1 - explainer.blackbox.predict(rows)
            desired = np.array([f if s is None else s for f, s in zip(
                flipped, spec if spec is not None else [None] * len(rows))])
            keys = {(row.tobytes(), int(d)) for row, d in zip(rows, desired)}
            repeats += len(keys & seen)
            seen |= keys
            x_cf = explainer.generator.generate(rows, desired)
            assert_bit_identical(
                {"desired": served.desired, "x_cf": served.x_cf,
                 "predicted": served.predicted,
                 "feasible": served.feasible},
                {"desired": desired, "x_cf": x_cf,
                 "predicted": explainer.blackbox.predict(x_cf),
                 "feasible": explainer.constraints.satisfied(rows, x_cf)},
                context="explain_batch vs generate+predict+kernel")
        # the overlapping batch answers its repeated requests from cache
        assert repeats > 0
        assert service.stats["cache_hits"] == repeats

    def test_flush_matches_candidate_sweep_and_closest_pick(self, tiny_pipeline,
                                                             explain_rows, stored):
        from tests.helpers.loops import sweep_candidate_sets

        store, _ = stored
        explainer = tiny_pipeline.explainer
        with WorkerPool(store, "t", n_replicas=1, flush_kwargs={"n_candidates": 6}) as pool:
            for rows, spec in self._batches(explain_rows):
                specs = spec if spec is not None else [None] * len(rows)
                answers = pool.flush_rows(rows, specs)
                flipped = 1 - explainer.blackbox.predict(rows)
                desired = np.array([f if s is None else s for f, s in zip(flipped, specs)])
                candidate_sets = sweep_candidate_sets(
                    explainer, rows, n_candidates=6, desired=desired)
                for answer, target, cs in zip(answers, desired, candidate_sets):
                    index = pick_candidate(cs)
                    valid = bool(cs.valid[index])
                    assert_bit_identical(
                        answer,
                        {"x_cf": cs.candidates[index], "desired": int(target),
                         "predicted": int(target) if valid else 1 - int(target),
                         "valid": valid, "feasible": bool(cs.feasible[index]),
                         "chosen": index, "n_usable": int(cs.usable_mask.sum()),
                         "n_valid": int(cs.valid.sum())},
                        context="flush vs per-row candidate sweep+closest pick")

    def test_hosted_flush_honours_n_candidates_and_rng(self, tiny_pipeline,
                                                       explain_rows):
        from repro.causal import ScmCausalModel

        causal = ScmCausalModel(tiny_pipeline.encoder)
        service = ExplanationService(tiny_pipeline, causal=causal)
        rows = explain_rows[:7]
        answers = service._answer_block(
            CoreCFStrategy(tiny_pipeline.explainer, n_candidates=3, rng=np.random.default_rng(0)),
            rows, 1 - tiny_pipeline.blackbox.predict(rows))
        runner = EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox,
                              causal=causal)
        result, diagnostics = runner.run(
            CoreCFStrategy(tiny_pipeline.explainer, n_candidates=3,
                           rng=np.random.default_rng(0)),
            rows, return_diagnostics=True)
        assert diagnostics["n_candidates"] == 3
        for i, resolved in enumerate(answers):
            np.testing.assert_array_equal(resolved["x_cf"], result.x_cf[i])
            assert resolved["predicted"] == int(result.predicted[i])
            assert resolved["feasible"] == bool(result.feasible[i])
            assert resolved["chosen"] == int(diagnostics["chosen"][i])
            assert resolved["n_usable"] == int(diagnostics["n_usable"][i])
            assert resolved["n_valid"] == int(diagnostics["n_valid"][i])

    def test_default_rng_flush_reuses_one_plan(self, explain_rows, stored):
        store, _ = stored
        with WorkerPool(store, "t", n_replicas=1, flush_kwargs={"n_candidates": 4}) as pool:
            service = pool.replicas[0]
            strategy, runner = pool._shard_strategy, service.runner
            assert strategy.n_candidates == 4
            for row in explain_rows[:3]:
                pool.flush_rows(row)
            # one shard strategy and one runner, whatever the traffic
            assert pool._shard_strategy is strategy
            assert service.runner is runner
