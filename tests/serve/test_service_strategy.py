"""Strategy-agnostic serving: any CFStrategy behind ExplanationService."""

import numpy as np
import pytest

from repro.constraints import MonotonicIncreaseConstraint
from repro.core import FeasibleCFExplainer
from repro.engine import EngineRunner, build_strategy
from repro.serve import ArtifactStore, ExplanationService, WorkerPool


@pytest.fixture(scope="module")
def dice_strategy(tiny_pipeline):
    strategy = build_strategy(
        "dice_random",
        tiny_pipeline.encoder,
        tiny_pipeline.blackbox,
        seed=0,
        max_attempts=10,
    )
    return strategy.fit(*tiny_pipeline.bundle.split("train"))


class TestStrategyServing:
    def test_serves_baseline_strategy(self, tiny_pipeline, dice_strategy, explain_rows):
        service = ExplanationService(tiny_pipeline, strategy=dice_strategy)
        result = service.explain_batch(explain_rows)
        assert result.x_cf.shape == explain_rows.shape
        assert service.cache_fingerprint.split(":")[1] == dice_strategy.fingerprint()

    def test_matches_direct_runner(self, tiny_pipeline, explain_rows):
        def built():
            strategy = build_strategy(
                "dice_random",
                tiny_pipeline.encoder,
                tiny_pipeline.blackbox,
                seed=0,
                max_attempts=10,
            )
            return strategy.fit(*tiny_pipeline.bundle.split("train"))

        service = ExplanationService(tiny_pipeline, strategy=built())
        desired = np.ones(len(explain_rows), dtype=int)
        served = service.explain_batch(explain_rows, desired)
        runner = EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox)
        direct = runner.run(built(), explain_rows, desired)
        np.testing.assert_array_equal(served.x_cf, direct.x_cf)
        np.testing.assert_array_equal(served.valid, direct.valid)
        np.testing.assert_array_equal(served.feasible, direct.feasible)

    def test_cache_replay_is_identical(self, tiny_pipeline, dice_strategy, explain_rows):
        service = ExplanationService(tiny_pipeline, strategy=dice_strategy)
        first = service.explain_batch(explain_rows)
        again = service.explain_batch(explain_rows)
        np.testing.assert_array_equal(first.x_cf, again.x_cf)
        assert service.stats["cache_hits"] == len(explain_rows)

    def test_cache_keys_separate_strategies(self, tiny_pipeline, dice_strategy, explain_rows):
        core = ExplanationService(tiny_pipeline)
        assert core.cache_fingerprint.split(":")[1] == "core"
        assert core.cache_fingerprint != ExplanationService(
            tiny_pipeline, strategy=dice_strategy
        ).cache_fingerprint
        assert core.fingerprint == tiny_pipeline.fingerprint

    def test_another_strategy_keys_another_cache(
        self, tiny_pipeline, dice_strategy, explain_rows
    ):
        service = ExplanationService(tiny_pipeline, strategy=dice_strategy)
        assert service.served_strategy is dice_strategy
        served = service.explain_batch(explain_rows)
        # to serve the core generator instead, build another service
        core_service = ExplanationService(tiny_pipeline)
        assert core_service.cache_fingerprint != service.cache_fingerprint
        core = core_service.explain_batch(explain_rows)
        explainer = tiny_pipeline.explainer
        desired = 1 - explainer.blackbox.predict(explain_rows)
        np.testing.assert_array_equal(
            core.x_cf, explainer.generator.generate(explain_rows, desired)
        )
        assert not np.array_equal(core.x_cf, served.x_cf)

    def test_core_path_unchanged_without_strategy(self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline, cache_size=0)
        result = service.explain_batch(explain_rows)
        explainer = tiny_pipeline.explainer
        desired = 1 - explainer.blackbox.predict(explain_rows)
        x_cf = explainer.generator.generate(explain_rows, desired)
        np.testing.assert_array_equal(result.x_cf, x_cf)
        np.testing.assert_array_equal(
            result.feasible, explainer.constraints.satisfied(explain_rows, x_cf)
        )

    def test_flush_routes_through_strategy(self, tmp_path, tiny_pipeline, explain_rows):
        def built():
            strategy = build_strategy(
                "dice_random",
                tiny_pipeline.encoder,
                tiny_pipeline.blackbox,
                seed=0,
                max_attempts=10,
            )
            return strategy.fit(*tiny_pipeline.bundle.split("train"))

        store = ArtifactStore(tmp_path / "store")
        store.save(tiny_pipeline, name="tiny")
        rows = explain_rows[:4]
        with WorkerPool(store, "tiny", n_replicas=1, strategy=built()) as pool:
            answers = pool.flush_rows(rows)
        desired = 1 - tiny_pipeline.blackbox.predict(rows)
        runner = EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox)
        direct = runner.run(built(), rows, desired)
        for i, result in enumerate(answers):
            np.testing.assert_array_equal(result["x_cf"], direct.x_cf[i])
            assert result["valid"] == bool(direct.valid[i])
            assert result["feasible"] == bool(direct.feasible[i])

    def test_warm_start_with_strategy(self, tmp_path, tiny_pipeline, explain_rows):
        store = ArtifactStore(tmp_path / "store")
        store.save(tiny_pipeline, name="tiny")
        loaded = store.load("tiny")
        strategy = build_strategy(
            "dice_random", loaded.encoder, loaded.blackbox, seed=0, max_attempts=10
        )
        strategy.fit(*tiny_pipeline.bundle.split("train"))
        service = ExplanationService.warm_start(store, "tiny", strategy=strategy)
        result = service.explain_batch(explain_rows)
        assert result.x_cf.shape == explain_rows.shape
        assert service.strategy is strategy


class TestStrategyConstraintsChecked:
    """A strategy flagged against constraints the runner lacks is refused."""

    @pytest.fixture(scope="class")
    def never_feasible(self, tiny_pipeline):
        # the pipeline's trained models, flagged against an unsatisfiable
        # constraint outside the Adult catalog
        encoder = tiny_pipeline.encoder
        explainer = FeasibleCFExplainer(
            encoder, constraints=[MonotonicIncreaseConstraint(
                encoder, "hours_per_week", tolerance=-1.0)],
            blackbox=tiny_pipeline.blackbox)
        explainer.generator = tiny_pipeline.explainer.generator
        return explainer

    def test_explain_uses_its_own_constraints(self, never_feasible, explain_rows):
        assert not never_feasible.explain(explain_rows).feasible.any()

    def test_runner_raises_naming_missing_constraints(
            self, tiny_pipeline, never_feasible, explain_rows):
        runner = EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox)
        with pytest.raises(ValueError, match=r"unary\[hours_per_week non-decreasing\]"):
            runner.run(never_feasible.as_strategy(), explain_rows)

    def test_service_raises_at_construction(self, tiny_pipeline, never_feasible):
        with pytest.raises(ValueError, match="hours_per_week"):
            ExplanationService(tiny_pipeline, strategy=never_feasible.as_strategy())
