"""Scenario registry: completeness, validation and an end-to-end run."""

import numpy as np
import pytest

from repro.data import dataset_names
from repro.engine import (
    EngineRunner,
    Scenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.engine.scenarios import report_kinds_for
from repro.engine.strategy import STRATEGY_NAMES
from repro.experiments.runconfig import ExperimentScale
from tests.helpers.parity import staged_runner


class TestRegistry:
    def test_builtin_grid_is_complete(self):
        from repro.causal import CAUSAL_NAMES
        from repro.engine.scenarios import density_variants_for

        names = scenario_names()
        n_robust_variants = 2  # +robust and +robust-knn
        per_dataset = sum(
            1 + len(density_variants_for(strategy)) + len(CAUSAL_NAMES)
            + n_robust_variants
            + (1 if strategy.startswith("ours_") else 0)  # +inloss
            for strategy in STRATEGY_NAMES)
        assert len(names) == len(dataset_names()) * per_dataset
        for dataset in dataset_names():
            for strategy in STRATEGY_NAMES:
                assert f"{dataset}/{strategy}" in names
                for density in density_variants_for(strategy):
                    assert f"{dataset}/{strategy}+{density}" in names
                for causal in CAUSAL_NAMES:
                    assert f"{dataset}/{strategy}+{causal}" in names
                assert f"{dataset}/{strategy}+robust" in names
                assert f"{dataset}/{strategy}+robust-knn" in names
                if strategy.startswith("ours_"):
                    assert f"{dataset}/{strategy}+inloss" in names

    def test_grid_holds_the_causal_acceptance_floor(self):
        # the issue's acceptance bar: >= 140 entries with +scm variants
        # for every dataset x strategy
        names = scenario_names()
        assert len(names) >= 140
        for dataset in dataset_names():
            for strategy in STRATEGY_NAMES:
                assert f"{dataset}/{strategy}+scm" in names

    def test_grid_holds_the_robust_acceptance_floor(self):
        # the robustness issue's acceptance bar: ~190 entries with
        # ensemble-hosting +robust variants for every dataset x strategy
        from repro.engine import DEFAULT_ENSEMBLE_SIZE

        names = scenario_names()
        assert len(names) >= 190
        for dataset in dataset_names():
            for strategy in STRATEGY_NAMES:
                scenario = get_scenario(f"{dataset}/{strategy}+robust")
                assert scenario.ensemble == DEFAULT_ENSEMBLE_SIZE
                assert get_scenario(
                    f"{dataset}/{strategy}+robust-knn").density == "knn"

    def test_filters(self):
        adult = list(iter_scenarios(
            dataset="adult", density=None, causal=None, ensemble=0,
            inloss=False))
        assert len(adult) == len(STRATEGY_NAMES)
        inloss = list(iter_scenarios(dataset="adult", inloss=True))
        assert {s.strategy for s in inloss} == {"ours_unary", "ours_binary"}
        assert all(s.inloss for s in inloss)
        face = list(iter_scenarios(
            strategy="face", density=None, causal=None, ensemble=0))
        assert {s.dataset for s in face} == set(dataset_names())
        knn = list(iter_scenarios(dataset="adult", density="knn", ensemble=0))
        assert len(knn) == len(STRATEGY_NAMES)
        assert all(s.density == "knn" for s in knn)
        scm = list(iter_scenarios(dataset="adult", causal="scm"))
        assert len(scm) == len(STRATEGY_NAMES)
        assert all(s.causal == "scm" for s in scm)
        from repro.engine import DEFAULT_ENSEMBLE_SIZE

        robust = list(iter_scenarios(
            dataset="adult", ensemble=DEFAULT_ENSEMBLE_SIZE))
        assert len(robust) == 2 * len(STRATEGY_NAMES)
        assert all(s.ensemble == DEFAULT_ENSEMBLE_SIZE for s in robust)

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("adult/gandalf")

    def test_binary_methods_use_binary_kind(self):
        assert get_scenario("adult/ours_binary").constraint_kind == "binary"
        assert get_scenario("adult/ours_unary").constraint_kind == "unary"

    def test_register_validates_names(self):
        with pytest.raises(KeyError, match="unknown dataset"):
            register_scenario(Scenario("x", "mordor", "cem"))
        with pytest.raises(KeyError, match="unknown strategy"):
            register_scenario(Scenario("x", "adult", "gandalf"))
        with pytest.raises(ValueError, match="desired policy"):
            register_scenario(Scenario("x", "adult", "cem", desired="maybe"))
        with pytest.raises(KeyError, match="already registered"):
            register_scenario(Scenario("adult/cem", "adult", "cem"))

    def test_register_rejects_inloss_on_noncore_strategy(self):
        # only the core (ours_*) strategies train a CF-VAE objective the
        # six-part in-loss terms could fold into
        with pytest.raises(ValueError, match="in-loss"):
            register_scenario(
                Scenario("x/cem+inloss", "adult", "cem", inloss=True))

    def test_register_custom_and_overwrite(self):
        scenario = Scenario(
            "test/custom-cem", "adult", "cem",
            strategy_params=(("steps", 10),))
        try:
            register_scenario(scenario)
            assert get_scenario("test/custom-cem").params() == {"steps": 10}
            register_scenario(scenario, overwrite=True)
        finally:
            from repro.engine import scenarios as module
            module._SCENARIOS.pop("test/custom-cem", None)

    def test_report_kinds(self):
        assert report_kinds_for("ours_unary") == ("unary",)
        assert report_kinds_for("mahajan_binary") == ("binary",)
        assert report_kinds_for("face") == ("unary", "binary")


class TestRunScenario:
    def test_end_to_end_tiny(self):
        scale = ExperimentScale("tiny", 900, 12, 4)
        result = run_scenario("adult/cem", scale=scale, seed=0)
        report = result.report
        assert report.method == "cem"
        assert report.n_instances == result.n_explained
        assert report.feasibility_unary is not None
        assert report.feasibility_binary is not None
        assert 0.0 <= report.validity <= 100.0
        assert result.blackbox_accuracy > 0.5

    def test_context_reuse_matches_fresh_run(self):
        from repro.experiments.harness import prepare_context

        scale = ExperimentScale("tiny", 900, 12, 4)
        context = prepare_context("adult", scale=scale, seed=0)
        reused = run_scenario("adult/cem", context=context)
        fresh = run_scenario("adult/cem", scale=scale, seed=0)
        assert reused.report == fresh.report

    def test_flip_policy(self):
        scale = ExperimentScale("tiny", 900, 12, 4)
        from repro.engine import scenarios as module

        scenario = Scenario("test/flip-cem", "adult", "cem", desired="flip",
                            strategy_params=(("steps", 15),))
        try:
            register_scenario(scenario)
            result = run_scenario("test/flip-cem", scale=scale, seed=0)
            assert result.report.method == "cem"
        finally:
            module._SCENARIOS.pop("test/flip-cem", None)

    def test_accepts_scenario_object(self):
        scale = ExperimentScale("tiny", 900, 12, 4)
        scenario = get_scenario("adult/dice_random")
        result = run_scenario(
            Scenario("inline", scenario.dataset, scenario.strategy,
                     strategy_params=(("max_attempts", 5),)),
            scale=scale, seed=0)
        assert result.report.method == "dice_random"
        assert np.isfinite(result.report.sparsity)


class TestDensityBackend:
    def test_default_is_exact(self):
        assert get_scenario("adult/face+knn").density_backend == "exact"

    def test_unknown_backend_rejected_at_registration(self):
        bad = Scenario("test/bad-backend", "adult", "cem",
                       density="knn", density_backend="faiss")
        with pytest.raises(ValueError, match="unknown density backend"):
            register_scenario(bad)

    def test_ann_scenario_runs_and_fits_ann_estimator(self):
        from repro.engine import scenarios as module
        from repro.engine.scenarios import _fit_scenario_density
        from repro.experiments.harness import prepare_context

        scale = ExperimentScale("tiny", 900, 12, 4)
        scenario = Scenario("test/ann-density", "adult", "dice_random",
                            density="knn", density_backend="ann",
                            strategy_params=(("max_attempts", 5),))
        try:
            register_scenario(scenario)
            context = prepare_context("adult", scale=scale, seed=0)
            model = _fit_scenario_density(
                scenario, context, scenario.strategy)
            assert model.backend == "ann"
            result = run_scenario("test/ann-density", context=context)
            assert result.report.mean_knn_distance is not None
        finally:
            module._SCENARIOS.pop("test/ann-density", None)


class TestRunScenarioDispatch:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.experiments.harness import prepare_context

        return prepare_context("adult", scale=ExperimentScale("tiny", 900, 12, 4), seed=0)

    def test_plan_engine_reproduces_staged_report(self, context):
        # a runner whose run is the staged reference scores the same row
        reference = staged_runner(EngineRunner(context.bundle.encoder, context.blackbox))
        staged = run_scenario("adult/cem", context=context, runner=reference)
        compiled = run_scenario("adult/cem", context=context)
        assert compiled.report == staged.report

    def test_rejects_unknown_engine(self, context):
        # the staged/plan knob is gone: every scenario replays a plan
        with pytest.raises(TypeError, match="engine"):
            run_scenario("adult/cem", context=context, engine="plan")
