"""Explain-chain parity: ``EngineRunner.run`` and ``evaluate`` vs the staged reference.

``EngineRunner.run`` is the one implementation of the row -> CF chain
and ``evaluate`` scores one of its runs.  Both must produce exactly
what the historical stage-by-stage chain
(``tests.helpers.parity.staged_run``) produces — same counterfactuals,
same flags, same diagnostics — for every strategy on every registry
dataset, with and without hosted density/causal/ensemble models,
pinned bit-identical.
"""

import numpy as np
import pytest

from repro.core import fast_config
from repro.engine import CandidateBatch, CoreCFStrategy, EngineRunner, build_strategy
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
    staged reference and ``runner.run`` — which isolates the parity
    check to the chain after proposal (projection, repair, validity,
    feasibility, density/robust scoring, selection) across a genuine
    ``m > 1`` selection workload.
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
    """Pin ``runner.run`` to the staged reference.

    ``make_strategy`` returns a fresh strategy per call (or the same
    RNG-free instance), so both paths propose from identical state.
    """
    staged = staged_run(runner, make_strategy(), x, desired, return_diagnostics=True)
    via_run = runner.run(make_strategy(), x, desired, return_diagnostics=True)
    assert_bit_identical(unpack(via_run), unpack(staged), context=f"run vs staged ({context})")


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
        served = runner.run(strategy, context.x_explain, context.desired)
        assert_bit_identical(
            {"x_cf": served.x_cf, "predicted": served.predicted,
             "valid": served.valid, "feasible": served.feasible},
            {"x_cf": staged.x_cf, "predicted": staged.predicted,
             "valid": staged.valid, "feasible": staged.feasible},
            context="run vs staged")

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
            assert via_run.as_row() == staged.as_row()


    def test_per_request_runs_agree_with_the_batch(self, context, hosted):
        """One run per row answers like one batched run, up to near-ties.

        The validity GEMM's BLAS blocking changes with the batch shape,
        so a selection near-tie may resolve differently on a lone row.
        """
        _, causal, _ = hosted
        runner = EngineRunner(context.bundle.encoder, context.blackbox, causal=causal)
        strategy = _SweepStrategy(context.x_explain, m=40, seed=13)
        x, desired = context.x_explain, context.desired
        batch = runner.run(strategy, x, desired).x_cf
        per_row = np.concatenate([
            runner.run(strategy, x[i:i + 1], desired[i:i + 1]).x_cf for i in range(len(x))])
        assert (per_row == batch).all(axis=1).mean() >= 0.9


class TestRunnerMemo:
    """The runner keeps no per-call state, so threads may share one."""

    def test_concurrent_runs_never_cross_strategies(self, context):
        # threads share one runner (as pool replicas do) and keep
        # switching strategies; each run must still explain with its
        # own strategy's proposals and flag columns
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


class TestPlanInputFuzz:
    def test_execute_rejects_malformed_rows(self, context):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        strategy = _SweepStrategy(context.x_explain, m=3, seed=2)
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
                runner.run(strategy, rows, context.desired[: len(rows)])
