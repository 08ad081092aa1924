"""Density-layer selection tests: parity, single score pass, fit contract."""

from functools import partial

import numpy as np
import pytest

from repro.core import DensityCFSelector, FeasibleCFExplainer, fast_config
from repro.data import load_dataset
from repro.density import GaussianKdeDensity, KnnDensity
from repro.engine import EngineRunner
from repro.utils.validation import SchemaMismatchError
from tests.helpers.loops import explain_loop
from tests.helpers.parity import DATASETS, assert_batched_matches_loop


def _fit_explainer(dataset, seed=0):
    bundle = load_dataset(dataset, n_instances=900, seed=seed)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=2), seed=seed)
    explainer.fit(x_train, y_train)
    x_test, _ = bundle.split("test")
    rows = x_test[:10]
    return explainer, x_train, rows


@pytest.fixture(scope="module", params=DATASETS)
def fitted(request):
    return _fit_explainer(request.param)


def _loop_without_score(selector, *args, **kwargs):
    """The historical per-row selector, minus the ``score`` key it alone reports."""
    x_cf, diagnostics = explain_loop(selector, *args, **kwargs)
    return x_cf, [{k: v for k, v in d.items() if k != "score"} for d in diagnostics]


class TestBatchLoopParity:
    """The selector must reproduce the historical per-row loop exactly."""

    def test_explain_bit_identical_to_loop(self, fitted):
        explainer, x_train, rows = fitted
        selector = DensityCFSelector(explainer, density_weight=2.0, k_neighbors=6)
        selector.fit_reference(x_train[:150])
        assert_batched_matches_loop(
            selector.explain, partial(_loop_without_score, selector), rows, n_candidates=7,
            context="density explain")

    def test_kde_estimator_selects_equivalently(self, fitted):
        # the kde backend is matmul-based, so scores match within float
        # tolerance rather than bitwise (BLAS blocking varies with batch
        # shape); the selected counterfactuals still agree
        explainer, x_train, rows = fitted
        selector = DensityCFSelector(
            explainer, k_neighbors=6, density_model=GaussianKdeDensity())
        selector.fit_reference(x_train[:150])
        assert_batched_matches_loop(
            selector.explain, partial(_loop_without_score, selector), rows[:6], n_candidates=5,
            atol=1e-6, context="kde density explain")


class TestRunnerParity:
    """``selector.explain`` is the runner's Figure 3 selection, bit for bit."""

    @pytest.mark.parametrize("make_model", [
        lambda: KnnDensity(k_neighbors=6), GaussianKdeDensity,
    ], ids=["knn", "kde"])
    def test_explain_equals_density_runner(self, fitted, make_model):
        explainer, x_train, rows = fitted
        selector = DensityCFSelector(
            explainer, density_weight=2.0, density_model=make_model())
        selector.fit_reference(x_train[:150])
        x_cf, diagnostics = selector.explain(
            rows, n_candidates=7, rng=np.random.default_rng(3))

        runner = EngineRunner(
            explainer.encoder, explainer.blackbox,
            constraints=explainer.constraints,
            density=selector.density_model, density_weight=2.0)
        result, expected = runner.run(
            explainer.as_strategy(n_candidates=7, rng=np.random.default_rng(3)),
            rows, return_diagnostics=True)
        np.testing.assert_array_equal(x_cf, result.x_cf)
        assert [d["chosen"] for d in diagnostics] == expected["chosen"].tolist()
        assert [d["n_usable"] for d in diagnostics] == expected["n_usable"].tolist()


class _CountingKnn(KnnDensity):
    """KnnDensity that counts backend score passes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.score_calls = 0
        self.tiled_calls = 0

    def score(self, candidates):
        self.score_calls += 1
        return super().score(candidates)

    def score_tiled(self, candidates):
        self.tiled_calls += 1
        return super().score_tiled(candidates)


class TestSingleScorePass:
    def test_explain_scores_each_batch_once(self, fitted):
        explainer, x_train, rows = fitted
        model = _CountingKnn(k_neighbors=6)
        selector = DensityCFSelector(explainer, density_model=model)
        selector.fit_reference(x_train[:150])
        model.score_calls = 0
        model.tiled_calls = 0
        selector.explain(rows, n_candidates=6)
        # one tiled pass for the whole batch; score() only as its backend
        assert model.tiled_calls == 1
        assert model.score_calls == 1

    def test_loop_reference_scored_twice_per_row(self, fitted):
        # documents the historical cost the batched path removed
        explainer, x_train, rows = fitted
        model = _CountingKnn(k_neighbors=6)
        selector = DensityCFSelector(explainer, density_model=model)
        selector.fit_reference(x_train[:150])
        model.score_calls = 0
        explain_loop(selector, rows, n_candidates=6)
        assert model.score_calls == 2 * len(rows)


class TestFitReferenceContract:
    def test_wrong_width_raises_schema_error(self, fitted):
        explainer, x_train, _ = fitted
        selector = DensityCFSelector(explainer)
        with pytest.raises(SchemaMismatchError, match="x_reference"):
            selector.fit_reference(x_train[:50, :-1])

    def test_kde_model_small_population_does_not_warn(self, fitted):
        # the k-clamping warning is a k-NN statement; a KDE has no k
        import warnings as warnings_module

        explainer, x_train, _ = fitted
        selector = DensityCFSelector(
            explainer, k_neighbors=100_000, density_model=GaussianKdeDensity())
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            selector.fit_reference(x_train[:60])
        assert selector.n_reference > 0

    def test_warning_uses_the_injected_models_k(self, fitted):
        explainer, x_train, _ = fitted
        model = KnnDensity(k_neighbors=100_000)
        selector = DensityCFSelector(explainer, k_neighbors=2, density_model=model)
        with pytest.warns(UserWarning, match="k_neighbors=100000"):
            selector.fit_reference(x_train[:60])

    def test_small_population_warns_and_fits(self, fitted):
        explainer, x_train, rows = fitted
        selector = DensityCFSelector(explainer, k_neighbors=100_000)
        with pytest.warns(UserWarning, match="density scores will use"):
            selector.fit_reference(x_train[:60])
        assert selector.n_reference > 0
        # usable end to end despite the shrunken k
        x_cf, diagnostics = selector.explain(rows[:3], n_candidates=4)
        assert x_cf.shape == (3, x_train.shape[1])
        assert len(diagnostics) == 3

    def test_zero_feasible_references_raise(self, fitted, monkeypatch):
        explainer, x_train, _ = fitted
        selector = DensityCFSelector(explainer)
        real = explainer.explain

        def no_feasible(x, desired=None):
            result = real(x, desired)
            result.feasible[:] = False
            return result

        monkeypatch.setattr(explainer, "explain", no_feasible)
        with pytest.raises(ValueError, match="no valid & feasible"):
            selector.fit_reference(x_train[:40])

    def test_unfitted_explain_raises(self, fitted):
        explainer, _, rows = fitted
        selector = DensityCFSelector(explainer)
        with pytest.raises(RuntimeError, match="no reference"):
            selector.explain(rows[:2], n_candidates=3)
