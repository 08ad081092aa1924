"""Unified warm_start overlay spec and the one plan-replaying serving path."""

import numpy as np
import pytest

from repro.density import KnnDensity
from repro.engine import CoreCFStrategy, EngineRunner
from repro.serve import ArtifactStore, ExplanationService
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
        assert service.density is not None
        assert service.density.fingerprint() == density.fingerprint()

    def test_overlays_spec_accepts_fitted_models(self, stored):
        store, density = stored
        service = ExplanationService.warm_start(
            store, "t", overlays={"density": density})
        assert service.density is density

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
    """The service answers every miss and flush by replaying a plan."""

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

    def test_plan_recompiles_when_the_runner_rebuilds(self, tiny_pipeline,
                                                      explain_rows, stored):
        _, density = stored
        service = ExplanationService(tiny_pipeline)
        service.explain_batch(explain_rows[:2])
        first = service.runner.plan_for(service.core_strategy)
        service.explain_batch(explain_rows[2:4])
        # stable while the configuration is stable
        assert service.runner.plan_for(service.core_strategy) is first
        service.density = density
        service.explain_batch(explain_rows[4:6])
        second = service.runner.plan_for(service.core_strategy)
        assert second is not first
        assert second.runner.density is density

    def test_plan_engine_flush_serves_submitted_rows(self, tiny_pipeline,
                                                     explain_rows):
        # a one-candidate flush proposes the deterministic decode, so a
        # ticket answers exactly what the batch path answers for its row
        service = ExplanationService(tiny_pipeline, cache_size=0)
        batch = service.explain_batch(explain_rows[:3])
        tickets = [service.submit(row) for row in explain_rows[:3]]
        service.flush(n_candidates=1)
        for i, ticket in enumerate(tickets):
            resolved = ticket.result()
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
                 "feasible": explainer.compiled_constraints.satisfied(rows, x_cf)},
                context="explain_batch vs generate+predict+kernel")
        # the overlapping batch answers its repeated requests from cache
        assert repeats > 0
        assert service.stats["cache_hits"] == repeats

    def test_flush_matches_candidate_sweep_and_closest_pick(self, tiny_pipeline,
                                                             explain_rows):
        from tests.helpers.loops import sweep_candidate_sets

        service = ExplanationService(tiny_pipeline)
        explainer = tiny_pipeline.explainer
        for rows, spec in self._batches(explain_rows):
            specs = spec if spec is not None else [None] * len(rows)
            tickets = [service.submit(row, None if s is None else int(s))
                       for row, s in zip(rows, specs)]
            service.flush(n_candidates=6)
            flipped = 1 - explainer.blackbox.predict(rows)
            desired = np.array([f if s is None else s for f, s in zip(flipped, specs)])
            candidate_sets = sweep_candidate_sets(
                explainer, rows, n_candidates=6, desired=desired)
            for ticket, target, cs in zip(tickets, desired, candidate_sets):
                index = pick_candidate(cs)
                valid = bool(cs.valid[index])
                assert_bit_identical(
                    ticket.result(),
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
        tickets = [service.submit(row) for row in rows]
        service.flush(n_candidates=3, rng=np.random.default_rng(0))
        runner = EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox,
                              causal=causal)
        result, diagnostics = runner.run(
            CoreCFStrategy(tiny_pipeline.explainer, n_candidates=3,
                           rng=np.random.default_rng(0)),
            rows, return_diagnostics=True)
        assert diagnostics["n_candidates"] == 3
        for i, ticket in enumerate(tickets):
            resolved = ticket.result()
            np.testing.assert_array_equal(resolved["x_cf"], result.x_cf[i])
            assert resolved["predicted"] == int(result.predicted[i])
            assert resolved["feasible"] == bool(result.feasible[i])
            assert resolved["chosen"] == int(diagnostics["chosen"][i])
            assert resolved["n_usable"] == int(diagnostics["n_usable"][i])
            assert resolved["n_valid"] == int(diagnostics["n_valid"][i])

    def test_default_rng_flush_reuses_one_plan(self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline)
        for row in explain_rows[:2]:
            service.submit(row)
            service.flush(n_candidates=4)
        strategy = service._core_strategy_for(4)
        assert strategy.n_candidates == 4
        plan = service.runner.plan_for(strategy)
        service.submit(explain_rows[2])
        service.flush(n_candidates=4)
        assert service.runner.plan_for(strategy) is plan
