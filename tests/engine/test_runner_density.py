"""Engine-level density tests: hosting, selection, metrics and scenarios."""

import numpy as np
import pytest

from repro.engine import EngineRunner, build_strategy, get_scenario, run_scenario
from repro.engine.scenarios import density_variants_for
from repro.experiments.harness import prepare_context
from repro.experiments.runconfig import ExperimentScale
from repro.density import GaussianKdeDensity, KnnDensity


SCALE = ExperimentScale("tiny", 900, 10, 4)


@pytest.fixture(scope="module")
def context():
    return prepare_context("adult", scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def dice(context):
    strategy = build_strategy(
        "dice_random", context.bundle.encoder, context.blackbox,
        dataset="adult", seed=0, max_attempts=10)
    return strategy.fit(context.x_train, context.y_train)


@pytest.fixture(scope="module")
def density(context):
    desired_class = int(context.bundle.schema.desired_class)
    reference = context.x_train[context.y_train == desired_class]
    return KnnDensity(k_neighbors=6).fit(reference)


class TestRunnerHosting:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_density_weight(self, context, density, bad):
        # a negative weight inverts Figure 3 (sparse regions win) and NaN
        # makes every score NaN, so argmax silently takes candidate 0
        with pytest.raises(ValueError, match="density_weight must be finite and positive"):
            EngineRunner(context.bundle.encoder, context.blackbox,
                         density=density, density_weight=bad)

    def test_no_density_runs_the_historical_path(self, context, dice):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        result, diagnostics = runner.run(
            dice, context.x_explain, context.desired, return_diagnostics=True)
        assert "row_density" not in diagnostics
        assert result.x_cf.shape == context.x_explain.shape

    def test_hosted_density_scores_every_strategy(self, context, dice, density):
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density)
        result, diagnostics = runner.run(
            dice, context.x_explain, context.desired, return_diagnostics=True)
        row_density = diagnostics["row_density"]
        assert row_density.shape == (len(context.x_explain),)
        np.testing.assert_array_equal(row_density, density.score(result.x_cf))

    def test_m1_results_unchanged_by_density(self, context, dice, density):
        plain = EngineRunner(context.bundle.encoder, context.blackbox)
        dense = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density)
        # single-candidate strategies: density adds a column, never
        # changes the counterfactuals themselves
        seeded = build_strategy(
            "dice_random", context.bundle.encoder, context.blackbox,
            dataset="adult", seed=3, max_attempts=10)
        seeded.fit(context.x_train, context.y_train)
        a = plain.run(seeded, context.x_explain, context.desired)
        seeded_again = build_strategy(
            "dice_random", context.bundle.encoder, context.blackbox,
            dataset="adult", seed=3, max_attempts=10)
        seeded_again.fit(context.x_train, context.y_train)
        b = dense.run(seeded_again, context.x_explain, context.desired)
        np.testing.assert_array_equal(a.x_cf, b.x_cf)

    def test_evaluate_fills_density_column(self, context, dice, density):
        dense = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density)
        report = dense.evaluate(
            dice, context.x_explain, context.desired, stats=context.stats)
        assert report.mean_knn_distance is not None
        assert np.isfinite(report.mean_knn_distance)

        plain = EngineRunner(context.bundle.encoder, context.blackbox)
        report_plain = plain.evaluate(
            dice, context.x_explain, context.desired, stats=context.stats)
        assert report_plain.mean_knn_distance is None


class TestDensityAwareSelection:
    def _core_strategy(self, context, n_candidates):
        from repro.engine import CoreCFStrategy
        from repro.core import FeasibleCFExplainer, fast_config

        explainer = FeasibleCFExplainer(
            context.bundle.encoder, constraint_kind="unary",
            config=fast_config(epochs=2), blackbox=context.blackbox, seed=0)
        explainer.fit(context.x_train, context.y_train)
        return CoreCFStrategy(explainer, n_candidates=n_candidates)

    def test_sweeps_select_denser_candidates(self, context, density):
        strategy = self._core_strategy(context, n_candidates=8)
        plain = EngineRunner(context.bundle.encoder, context.blackbox)
        heavy = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density,
            density_weight=100.0)
        proximity_pick = plain.run(strategy, context.x_explain, context.desired)
        density_pick = heavy.run(strategy, context.x_explain, context.desired)
        # a crushing density weight can only improve (lower) mean density
        assert (density.score(density_pick.x_cf).mean()
                <= density.score(proximity_pick.x_cf).mean() + 1e-9)

    def test_sweep_diagnostics_reuse_selection_scores(self, context, density):
        strategy = self._core_strategy(context, n_candidates=6)
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density)
        result, diagnostics = runner.run(
            strategy, context.x_explain, context.desired,
            return_diagnostics=True)
        np.testing.assert_array_equal(
            diagnostics["row_density"], density.score(result.x_cf))


class TestDensityScenarios:
    def test_scenario_runs_with_kde(self, context):
        result = run_scenario("adult/dice_random+kde", context=context)
        assert result.report.mean_knn_distance is not None

    def test_latent_variant_restricted_to_core(self):
        assert "latent" in density_variants_for("ours_unary")
        assert "latent" not in density_variants_for("face")
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("adult/face+latent")

    def test_latent_on_baseline_raises_clearly(self, context):
        import dataclasses

        scenario = dataclasses.replace(
            get_scenario("adult/dice_random"),
            name="test/dice+latent", density="latent")
        with pytest.raises(ValueError, match="latent density"):
            run_scenario(scenario, context=context)

    def test_shared_runner_is_not_mutated(self, context, dice, density):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        run_scenario("adult/dice_random+knn", context=context, runner=runner)
        assert runner.density is None


class TestKdeRunner:
    def test_kde_hosting_works(self, context, dice):
        desired_class = int(context.bundle.schema.desired_class)
        reference = context.x_train[context.y_train == desired_class]
        kde = GaussianKdeDensity().fit(reference)
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=kde)
        report = runner.evaluate(
            dice, context.x_explain, context.desired, stats=context.stats)
        assert np.isfinite(report.mean_knn_distance)
