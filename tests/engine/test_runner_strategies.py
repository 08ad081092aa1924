"""Engine runner + strategy API parity against the pre-engine paths.

The acceptance bar for the refactor: every method routed through the
shared :class:`EngineRunner` must produce exactly what its legacy
entry point produced — same counterfactuals, same flags, same Table IV
numbers.
"""

import numpy as np
import pytest

from repro.core import FeasibleCFExplainer, fast_config
from repro.data import load_dataset
from repro.engine import EngineRunner, build_strategy
from repro.engine.runner import _select_candidates
from repro.metrics import evaluate_counterfactuals
from tests.helpers.parity import assert_bit_identical, pick_candidate


@pytest.fixture(scope="module")
def setup():
    bundle = load_dataset("adult", n_instances=1500, seed=2)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=3), seed=2)
    explainer.fit(x_train, y_train, blackbox_epochs=10)
    x_test, _ = bundle.split("test")
    negatives = x_test[explainer.blackbox.predict(x_test) == 0][:20]
    return bundle, explainer, x_train, y_train, negatives


class TestCoreParity:
    def test_explain_matches_legacy_path(self, setup):
        bundle, explainer, _, _, negatives = setup
        result = explainer.explain(negatives)
        # the pre-engine explain: generate + predict + loop feasibility
        desired = 1 - explainer.blackbox.predict(negatives)
        x_cf = explainer.generator.generate(negatives, desired)
        np.testing.assert_array_equal(result.x_cf, x_cf)
        np.testing.assert_array_equal(
            result.predicted, explainer.blackbox.predict(x_cf))
        np.testing.assert_array_equal(
            result.feasible, explainer.constraints.satisfied(negatives, x_cf))
        np.testing.assert_array_equal(result.desired, desired)

    def test_explicit_desired(self, setup):
        _, explainer, _, _, negatives = setup
        desired = np.ones(len(negatives), dtype=int)
        result = explainer.explain(negatives, desired)
        x_cf = explainer.generator.generate(negatives, desired)
        np.testing.assert_array_equal(result.x_cf, x_cf)

    def test_diverse_strategy_selects_from_candidates(self, setup):
        _, explainer, _, _, negatives = setup
        strategy = explainer.as_strategy(
            n_candidates=6, rng=np.random.default_rng(0))
        runner = explainer._engine_runner()
        result, diagnostics = runner.run(
            strategy, negatives, return_diagnostics=True)
        assert diagnostics["n_candidates"] == 6
        assert result.x_cf.shape == negatives.shape
        # every chosen row is one of that row's projected candidates
        batch = explainer.as_strategy(
            n_candidates=6, rng=np.random.default_rng(0)).propose(negatives)
        projected = runner.project(batch.x, batch.candidates)
        rows = np.arange(len(negatives))
        np.testing.assert_array_equal(
            result.x_cf, projected[rows, diagnostics["chosen"]])


class TestBaselineParity:
    @pytest.mark.parametrize("method,params", [
        ("cem", {"steps": 25}),
        ("dice_random", {"max_attempts": 10}),
        ("face", {}),
        ("revise", {"vae_epochs": 3, "steps": 20}),
        ("cchvae", {"vae_epochs": 3, "n_candidates": 25, "max_radius": 1.0}),
    ])
    def test_runner_matches_generate(self, setup, method, params):
        bundle, explainer, x_train, y_train, negatives = setup

        def built():  # two identical twins: rng state is consumed per run
            strategy = build_strategy(
                method, bundle.encoder, explainer.blackbox, seed=2, **params)
            return strategy.fit(x_train, y_train)

        runner = EngineRunner(bundle.encoder, explainer.blackbox)
        desired = np.ones(len(negatives), dtype=int)
        result = runner.run(built(), negatives, desired)
        # legacy path: _generate + 2-D projection (generate is the adapter)
        legacy_strategy = built()
        raw = np.asarray(
            legacy_strategy._generate(negatives, desired), dtype=np.float64)
        legacy = legacy_strategy.projector.project(negatives, raw)
        np.testing.assert_array_equal(result.x_cf, legacy)
        np.testing.assert_array_equal(
            result.valid,
            explainer.blackbox.predict(legacy) == desired)

    def test_mahajan_runs_through_engine(self, setup):
        bundle, explainer, x_train, y_train, negatives = setup
        strategy = build_strategy(
            "mahajan_unary", bundle.encoder, explainer.blackbox, seed=2,
            config=fast_config(epochs=2), min_epochs=2)
        strategy.fit(x_train, y_train)
        runner = EngineRunner(bundle.encoder, explainer.blackbox)
        result = runner.run(strategy, negatives)
        np.testing.assert_array_equal(result.x_cf, strategy.generate(negatives))


class TestTable4Parity:
    def test_kernel_metrics_match_loop_metrics(self, setup):
        bundle, explainer, x_train, y_train, negatives = setup
        strategy = build_strategy(
            "cem", bundle.encoder, explainer.blackbox, seed=2, steps=25)
        strategy.fit(x_train, y_train)
        desired = np.ones(len(negatives), dtype=int)
        x_cf = strategy.generate(negatives, desired)
        loop_report = evaluate_counterfactuals(
            "cem", negatives, x_cf, desired, explainer.blackbox,
            bundle.encoder, x_train=x_train)
        runner = EngineRunner(bundle.encoder, explainer.blackbox)
        engine_report = runner.evaluate(
            strategy, negatives, desired, x_train=x_train)
        assert engine_report == loop_report

    def test_single_kind_report(self, setup):
        bundle, explainer, x_train, _, negatives = setup
        runner = EngineRunner(bundle.encoder, explainer.blackbox)
        report = runner.evaluate(
            explainer.as_strategy(), negatives, x_train=x_train,
            report_kinds=("unary",))
        assert report.feasibility_unary is not None
        assert report.feasibility_binary is None
        assert report.method == "ours_unary"


class TestSelection:
    def test_matches_serving_pick_candidate(self):
        rng = np.random.default_rng(0)
        n, m, d = 12, 8, 5

        class _Set:
            pass

        x = rng.random((n, d))
        candidates = rng.random((n, m, d))
        valid = rng.random((n, m)) < 0.4
        feasible = rng.random((n, m)) < 0.5
        chosen = _select_candidates(x, candidates, valid, feasible)
        for i in range(n):
            cs = _Set()
            cs.x = x[i]
            cs.candidates = candidates[i]
            cs.valid = valid[i]
            cs.feasible = feasible[i]
            cs.usable_mask = valid[i] & feasible[i]
            assert chosen[i] == pick_candidate(cs)

    def test_fallback_is_deterministic_candidate(self):
        x = np.zeros((3, 4))
        candidates = np.ones((3, 2, 4))
        none = np.zeros((3, 2), dtype=bool)
        np.testing.assert_array_equal(
            _select_candidates(x, candidates, none, none), np.zeros(3, dtype=int))


class TestStrategyAPI:
    def test_fingerprints_distinguish_strategies(self, setup):
        bundle, explainer, _, _, _ = setup
        a = build_strategy("cem", bundle.encoder, explainer.blackbox, seed=2)
        b = build_strategy("face", bundle.encoder, explainer.blackbox, seed=2)
        c = build_strategy("cem", bundle.encoder, explainer.blackbox, seed=3)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != c.fingerprint()
        assert a.fingerprint() == build_strategy(
            "cem", bundle.encoder, explainer.blackbox, seed=2).fingerprint()

    def test_fingerprints_include_hyperparameters(self, setup):
        bundle, explainer, _, _, _ = setup
        a = build_strategy("dice_random", bundle.encoder, explainer.blackbox,
                           seed=2, max_attempts=10)
        b = build_strategy("dice_random", bundle.encoder, explainer.blackbox,
                           seed=2, max_attempts=200)
        assert a.fingerprint() != b.fingerprint()
        assert a.describe()["params"]["max_attempts"] == 10

    def test_evaluate_with_noncatalog_kernel_falls_back(self, setup):
        from repro.constraints import build_constraints

        bundle, explainer, x_train, y_train, negatives = setup
        unary_only = EngineRunner(
            bundle.encoder, explainer.blackbox,
            constraints=build_constraints(bundle.encoder, "unary"))
        strategy = build_strategy(
            "cem", bundle.encoder, explainer.blackbox, seed=2, steps=25)
        strategy.fit(x_train, y_train)
        report = unary_only.evaluate(strategy, negatives, x_train=x_train)
        full = EngineRunner(bundle.encoder, explainer.blackbox).evaluate(
            strategy, negatives, x_train=x_train)
        # the binary column is filled via the loop fallback, same value
        assert report.feasibility_binary == full.feasibility_binary
        assert report.feasibility_unary == full.feasibility_unary

    def test_unknown_strategy(self, setup):
        bundle, explainer, _, _, _ = setup
        with pytest.raises(KeyError, match="unknown method"):
            build_strategy("gandalf", bundle.encoder, explainer.blackbox)

    def test_default_noise_is_a_fresh_seed_plus_500_draw(self, setup):
        # the default stream is drawn once and reused: whatever the order
        # of batch sizes, each proposal equals a fresh default_rng draw
        _, explainer, _, _, negatives = setup
        strategy = explainer.as_strategy(n_candidates=4)
        for n in (3, 7, 2, 7, 1, 12):
            fresh = explainer.as_strategy(
                n_candidates=4, rng=np.random.default_rng(explainer.seed + 500))
            assert_bit_identical(
                strategy.propose(negatives[:n]).candidates,
                fresh.propose(negatives[:n]).candidates,
                context=f"default noise at n={n}")

    def test_default_noise_is_shared_safely_across_threads(self, setup):
        # pool replicas call propose on one strategy from several threads
        from concurrent.futures import ThreadPoolExecutor

        _, explainer, _, _, negatives = setup
        strategy = explainer.as_strategy(n_candidates=3)
        sizes = [1 + (i * 7) % 15 for i in range(48)]

        def fresh(n):
            return explainer.as_strategy(
                n_candidates=3, rng=np.random.default_rng(explainer.seed + 500)
            ).propose(negatives[:n]).candidates

        with ThreadPoolExecutor(max_workers=4) as pool:
            shared = list(pool.map(lambda n: strategy.propose(negatives[:n]).candidates, sizes))
        for n, got in zip(sizes, shared):
            assert_bit_identical(got, fresh(n), context=f"threaded default noise at n={n}")

    def test_candidate_batch_flat_layout(self, setup):
        _, explainer, _, _, negatives = setup
        batch = explainer.as_strategy(
            n_candidates=3, rng=np.random.default_rng(1)).propose(negatives)
        assert batch.n_candidates == 3
        assert batch.flat.shape == (len(negatives) * 3, negatives.shape[1])
        np.testing.assert_array_equal(
            batch.flat[:3], batch.candidates[0])

    def test_unfitted_baseline_refuses_propose(self, setup):
        bundle, explainer, _, _, negatives = setup
        strategy = build_strategy("face", bundle.encoder, explainer.blackbox)
        with pytest.raises(RuntimeError, match="not fitted"):
            strategy.propose(negatives)
