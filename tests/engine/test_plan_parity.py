"""Compiled ExplainPlan parity: every runner path vs the staged reference.

``ExplainPlan`` is the one implementation of the row -> CF chain:
``EngineRunner.run`` replays a memoised plan, ``compile().execute``
replays a fresh one and ``evaluate`` scores a run.  Each must produce
exactly what the historical stage-by-stage chain
(``tests.helpers.parity.staged_run``) produces — same counterfactuals,
same flags, same diagnostics — for every strategy on every registry
dataset, with and without hosted density/causal/ensemble models.  The
default ``"numpy"`` backend is pinned bit-identical; the tiled
``"float32"`` backend is pinned on hard outputs (predictions, validity,
feasibility, the chosen candidates).
"""

import numpy as np
import pytest

from repro.core import fast_config
from repro.engine import CandidateBatch, CoreCFStrategy, EngineRunner, build_strategy
from repro.engine.plan import ExplainPlan
from repro.experiments.harness import prepare_context
from repro.experiments.runconfig import ExperimentScale
from repro.utils.validation import SchemaMismatchError
from tests.helpers.parity import (
    DATASETS,
    assert_bit_identical,
    candidate_sweep,
    staged_run,
    staged_runner,
)

SCALE = ExperimentScale("tiny", 900, 10, 4)

#: Baseline strategies with the bench-scale fitting knobs the staged
#: parity suite (test_runner_strategies) established.
BASELINES = (
    ("cem", {"steps": 25}),
    ("dice_random", {"max_attempts": 10}),
    ("face", {}),
    ("revise", {"vae_epochs": 3, "steps": 20}),
    ("cchvae", {"vae_epochs": 3, "n_candidates": 25, "max_radius": 1.0}),
)


@pytest.fixture(scope="module", params=DATASETS)
def context(request):
    return prepare_context(request.param, scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def hosted(context):
    """(density, causal, ensemble) models fitted on the context's train split."""
    from repro.causal import fit_causal
    from repro.density import KnnDensity
    from repro.models import train_ensemble

    desired_class = int(context.bundle.schema.desired_class)
    density = KnnDensity(k_neighbors=6).fit(
        context.x_train[context.y_train == desired_class])
    causal = fit_causal("scm", context.bundle.encoder, context.x_train)
    ensemble = train_ensemble(
        context.x_train, context.y_train, n_members=3, epochs=2,
        include=context.blackbox)
    return density, causal, ensemble


def built(context, method, params, seed=0):
    """A freshly fitted strategy twin (RNG state is consumed per run)."""
    strategy = build_strategy(
        method, context.bundle.encoder, context.blackbox,
        dataset=context.dataset, seed=seed, **params)
    return strategy.fit(context.x_train, context.y_train)


def unpack(pair):
    """Flatten (result, diagnostics) into one dict of comparable leaves."""
    result, diagnostics = pair
    extras = dict(diagnostics)
    report = extras.pop("report")
    return {
        "x_cf": result.x_cf,
        "predicted": result.predicted,
        "valid": result.valid,
        "feasible": result.feasible,
        "desired": result.desired,
        "mask": report.mask_t,
        "names": list(report.names),
        **extras,
    }


class _SweepStrategy:
    """Deterministic fixed multi-candidate sweep, looked up by row bytes.

    Proposal consumes no RNG, so the *same* instance can feed both the
    staged and the compiled path — which isolates the parity check to
    the chain the plan fuses (projection, repair, validity, feasibility,
    density/robust scoring, selection) across a genuine ``m > 1``
    selection workload.
    """

    name = "test_sweep"

    def __init__(self, x, m, seed):
        sweep = candidate_sweep(x, np.random.default_rng(seed), 0.08, m)
        self._sweeps = dict(zip((row.tobytes() for row in x), sweep))

    def fit(self, x_train, y_train=None):
        return self

    def propose(self, x, desired=None):
        candidates = np.stack([self._sweeps[row.tobytes()] for row in x])
        return CandidateBatch(x, np.asarray(desired, dtype=int), candidates)

    def describe(self):
        return {"class": type(self).__name__, "rows": len(self._sweeps)}

    def fingerprint(self):
        return "test-sweep"


def assert_paths_match_staged(runner, make_strategy, x, desired, context):
    """Pin ``runner.run`` and ``compile().execute`` to the staged reference.

    ``make_strategy`` returns a fresh strategy per call (or the same
    RNG-free instance), so every path proposes from identical state.
    """
    staged = staged_run(runner, make_strategy(), x, desired, return_diagnostics=True)
    via_run = runner.run(make_strategy(), x, desired, return_diagnostics=True)
    via_plan = runner.compile(make_strategy()).execute(
        x, desired, return_diagnostics=True)
    assert_bit_identical(unpack(via_run), unpack(staged), context=f"run vs staged ({context})")
    assert_bit_identical(
        unpack(via_plan), unpack(staged), context=f"plan vs staged ({context})")


class TestNumpyBackendBitParity:
    @pytest.mark.parametrize(
        "method,params", BASELINES, ids=[m for m, _ in BASELINES])
    def test_baseline_matches_staged(self, context, method, params):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        assert_paths_match_staged(
            runner, lambda: built(context, method, params),
            context.x_explain, context.desired, method)

    def test_mahajan_matches_staged(self, context):
        params = {"config": fast_config(epochs=2), "min_epochs": 2}
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        assert_paths_match_staged(
            runner, lambda: built(context, "mahajan_unary", params),
            context.x_explain, context.desired, "mahajan_unary")

    def test_core_sweep_matches_staged(self, context, hosted):
        # the serving core path: a diverse CF-VAE sweep with a fixed rng
        density, causal, _ = hosted
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density,
            causal=causal)
        core = built(context, "ours_unary", {"config": fast_config(epochs=2)})

        def fresh():
            return CoreCFStrategy(
                core.explainer, n_candidates=6, rng=np.random.default_rng(4))

        assert_paths_match_staged(
            runner, fresh, context.x_explain, context.desired,
            "core sweep, density+causal")

    def test_full_hosted_sweep_matches_staged(self, context, hosted):
        density, causal, ensemble = hosted
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density,
            causal=causal, ensemble=ensemble)
        strategy = _SweepStrategy(context.x_explain, m=12, seed=7)
        assert_paths_match_staged(
            runner, lambda: strategy, context.x_explain, context.desired,
            "density+causal+ensemble sweep")

    def test_density_only_sweep_matches_staged(self, context, hosted):
        density, _, _ = hosted
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density,
            density_weight=2.0)
        strategy = _SweepStrategy(context.x_explain, m=8, seed=11)
        assert_paths_match_staged(
            runner, lambda: strategy, context.x_explain, context.desired,
            "density sweep")

    def test_causal_repair_single_candidate_matches_staged(
            self, context, hosted):
        _, causal, _ = hosted
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, causal=causal)
        assert_paths_match_staged(
            runner, lambda: built(context, "dice_random", {"max_attempts": 10}),
            context.x_explain, context.desired, "causal repair, m=1")

    def test_result_without_diagnostics_matches_staged(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=5, seed=3)
        staged = staged_run(runner, strategy, context.x_explain, context.desired)
        for label, compiled in (
            ("run", runner.run(strategy, context.x_explain, context.desired)),
            ("run(plan=)", runner.run(
                strategy, context.x_explain, context.desired,
                plan=runner.compile(strategy))),
        ):
            assert_bit_identical(
                {"x_cf": compiled.x_cf, "predicted": compiled.predicted,
                 "valid": compiled.valid, "feasible": compiled.feasible},
                {"x_cf": staged.x_cf, "predicted": staged.predicted,
                 "valid": staged.valid, "feasible": staged.feasible},
                context=f"{label} vs staged")

    def test_evaluate_matches_staged_report(self, context, hosted):
        density, causal, ensemble = hosted
        for runner in (
            EngineRunner(context.bundle.encoder, context.blackbox),
            EngineRunner(context.bundle.encoder, context.blackbox,
                         density=density, causal=causal, ensemble=ensemble),
        ):
            kwargs = {"x_train": context.x_train, "stats": context.stats}
            staged = staged_runner(runner).evaluate(
                built(context, "dice_random", {"max_attempts": 10}),
                context.x_explain, context.desired, **kwargs)
            via_run = runner.evaluate(
                built(context, "dice_random", {"max_attempts": 10}),
                context.x_explain, context.desired, **kwargs)
            plan = runner.compile(
                built(context, "dice_random", {"max_attempts": 10}))
            compiled = plan.evaluate(context.x_explain, context.desired, **kwargs)
            assert via_run.as_row() == staged.as_row()
            assert compiled.as_row() == staged.as_row()


class TestRunnerMemo:
    def test_same_strategy_reuses_the_plan(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=3, seed=1)
        plan = runner.plan_for(strategy)
        runner.run(strategy, context.x_explain, context.desired)
        assert runner.plan_for(strategy) is plan
        assert plan.strategy is strategy

    def test_different_strategy_recompiles(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        first = _SweepStrategy(context.x_explain, m=3, seed=1)
        second = _SweepStrategy(context.x_explain, m=3, seed=1)
        plan = runner.plan_for(first)
        runner.run(second, context.x_explain, context.desired)
        replaced = runner.plan_for(second)
        assert replaced is not plan
        assert replaced.strategy is second
        # single slot: switching back compiles again, nothing is retained
        assert runner.plan_for(first) is not plan

    def test_backend_switch_recompiles(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=3, seed=1)
        numpy_plan = runner.plan_for(strategy)
        tiled = runner.plan_for(strategy, backend="float32")
        assert tiled is not numpy_plan
        assert tiled.backend.name == "float32"
        assert runner.plan_for(strategy, backend="float32") is tiled
        assert runner.plan_for(strategy).backend.name == "numpy"

    def test_concurrent_runs_never_cross_strategies(self, context):
        # threads share one runner (as pool replicas do) and keep
        # replacing its single memo slot; each run must still replay
        # its own strategy's chain
        import sys
        import threading

        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategies = [
            _SweepStrategy(context.x_explain, m=m, seed=seed)
            for m, seed in ((2, 1), (3, 2), (4, 3))]
        expected = [
            staged_run(runner, s, context.x_explain, context.desired).x_cf
            for s in strategies]
        mismatches = []

        def worker(offset):
            for i in range(30):
                j = (offset + i) % len(strategies)
                out = runner.run(strategies[j], context.x_explain, context.desired)
                if not np.array_equal(out.x_cf, expected[j]):
                    mismatches.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []

    def test_compile_always_builds_a_fresh_plan(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=3, seed=1)
        memoised = runner.plan_for(strategy)
        assert runner.compile(strategy) is not memoised
        assert runner.plan_for(strategy) is memoised


class TestTiledFloat32HardParity:
    def test_hard_outputs_match_staged(self, context, hosted):
        density, causal, _ = hosted
        runner = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density,
            causal=causal)
        strategy = _SweepStrategy(context.x_explain, m=9, seed=5)
        staged = staged_run(runner, strategy, context.x_explain, context.desired)
        # tile_rows=7 exercises a ragged final tile on every dataset
        from repro.engine import TiledFloat32Backend

        plan = runner.compile(
            strategy, backend=TiledFloat32Backend(tile_rows=7))
        tiled = plan.execute(context.x_explain, context.desired)
        np.testing.assert_array_equal(tiled.predicted, staged.predicted)
        np.testing.assert_array_equal(tiled.valid, staged.valid)
        np.testing.assert_array_equal(tiled.feasible, staged.feasible)
        np.testing.assert_array_equal(tiled.x_cf, staged.x_cf)

    def test_tiles_cover_rows_exactly_once(self):
        from repro.engine import TiledFloat32Backend

        backend = TiledFloat32Backend(tile_rows=7)
        tiles = backend.tiles(23, 4, 10)
        covered = np.concatenate([np.arange(23)[t] for t in tiles])
        np.testing.assert_array_equal(covered, np.arange(23))

    def test_rejects_nonpositive_tile_rows(self):
        from repro.engine import TiledFloat32Backend

        with pytest.raises(ValueError, match="tile_rows"):
            TiledFloat32Backend(tile_rows=0)


class TestPlanIdentity:
    def test_fingerprint_is_deterministic_and_backend_sensitive(
            self, context, hosted):
        density, _, _ = hosted
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=4, seed=1)
        assert (runner.compile(strategy).fingerprint()
                == runner.compile(strategy).fingerprint())
        assert (runner.compile(strategy).fingerprint()
                != runner.compile(strategy, backend="float32").fingerprint())
        dense = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density)
        assert (runner.compile(strategy).fingerprint()
                != dense.compile(strategy).fingerprint())

    def test_trace_records_hosted_stages(self, context, hosted):
        density, causal, ensemble = hosted
        strategy = _SweepStrategy(context.x_explain, m=4, seed=1)
        plain = EngineRunner(context.bundle.encoder, context.blackbox)
        full = EngineRunner(
            context.bundle.encoder, context.blackbox, density=density,
            causal=causal, ensemble=ensemble)
        plain_stages = [s.name for s in plain.compile(strategy).stages]
        full_stages = [s.name for s in full.compile(strategy).stages]
        assert plain_stages == [
            "propose", "project", "predict", "feasibility", "select"]
        assert full_stages == [
            "propose", "project", "causal", "predict", "feasibility",
            "density", "robust", "select"]
        assert "->" in repr(full.compile(strategy))

    def test_run_rejects_foreign_plan(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        other = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=2, seed=1)
        plan = runner.compile(strategy)
        with pytest.raises(ValueError, match="different runner"):
            other.run(strategy, context.x_explain, context.desired, plan=plan)
        with pytest.raises(ValueError, match="different strategy"):
            runner.run(
                _SweepStrategy(context.x_explain, m=2, seed=1),
                context.x_explain, context.desired, plan=plan)

    def test_compile_accepts_backend_instance(self, context):
        from repro.engine import NumpyBackend

        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=2, seed=1)
        backend = NumpyBackend()
        plan = ExplainPlan(runner, strategy, backend=backend)
        assert plan.backend is backend


class TestPlanInputFuzz:
    def test_execute_rejects_malformed_rows(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=3, seed=2)
        plan = runner.compile(strategy)
        width = context.bundle.encoder.n_encoded
        rng = np.random.default_rng(20260807)
        bad_nan = context.x_explain.copy()
        bad_nan[0, 0] = np.nan
        bad_inf = context.x_explain.copy()
        bad_inf[-1, -1] = np.inf
        for rows in (
            rng.random((4, width - 1)),
            rng.random((4, width + 3)),
            bad_nan,
            bad_inf,
        ):
            with pytest.raises(SchemaMismatchError):
                plan.execute(rows, context.desired[: len(rows)])
