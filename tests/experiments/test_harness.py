"""Tests for the experiment harness (scales, context, method runs)."""

from dataclasses import asdict

import pytest

from repro.engine import EngineRunner, get_scenario, run_scenario
from repro.experiments import (
    SCALES,
    TABLE4_METHOD_ORDER,
    get_scale,
    prepare_context,
    run_method,
)
from tests.helpers.parity import assert_bit_identical


class TestScales:
    def test_known_scales(self):
        assert {"paper", "standard", "fast", "smoke"} <= set(SCALES)

    def test_get_scale_passthrough(self):
        scale = SCALES["smoke"]
        assert get_scale(scale) is scale

    def test_get_scale_unknown(self):
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_paper_scale_uses_table1_sizes(self):
        scale = get_scale("paper")
        assert scale.instances_for("adult") == 48_842
        assert scale.instances_for("kdd_census") == 299_285
        assert scale.instances_for("law_school") == 20_798

    def test_capped_scale(self):
        scale = get_scale("smoke")
        assert scale.instances_for("kdd_census") == scale.max_instances
        assert scale.max_instances < 20_798  # smaller than every dataset


@pytest.fixture(scope="module")
def context():
    return prepare_context("adult", scale="smoke", seed=0)


class TestContext:
    def test_explains_undesired_class_rows(self, context):
        predictions = context.blackbox.predict(context.x_explain)
        assert (predictions == 0).all()
        assert (context.desired == 1).all()

    def test_explain_count_capped(self, context):
        assert len(context.x_explain) <= SCALES["smoke"].n_explain

    def test_blackbox_beats_chance(self, context):
        assert context.blackbox_accuracy > 0.6

    def test_stats_fitted(self, context):
        assert context.stats.mad("age") > 0

    def test_dataset_property(self, context):
        assert context.dataset == "adult"


class TestRunMethod:
    def test_ours_reports_single_kind(self, context):
        report = run_method(context, "ours_unary")
        assert report.feasibility_unary is not None
        assert report.feasibility_binary is None
        assert report.validity > 50.0

    def test_baseline_reports_both_kinds(self, context):
        report = run_method(context, "cem")
        assert report.feasibility_unary is not None
        assert report.feasibility_binary is not None

    def test_unknown_method(self, context):
        with pytest.raises(KeyError):
            run_method(context, "gandalf")

    def test_method_order_is_papers(self):
        assert TABLE4_METHOD_ORDER[0] == "mahajan_unary"
        assert TABLE4_METHOD_ORDER[-1] == "ours_binary"
        assert len(TABLE4_METHOD_ORDER) == 9


#: The benchmark's cold ``fit`` pass, in its order.
FIT_SCENARIOS = ("adult/ours_unary", "adult/revise", "adult/ours_unary+inloss")


def _fit_runs(contexts, names=FIT_SCENARIOS):
    """Run scenario ``names[i]`` against ``contexts[i]``.

    Returns ``(x_cf, valid)`` per engine run, the Table IV reports and,
    after each scenario, its context's memo size and hit count.
    """
    runs, reports, memo = [], [], []
    for name, context in zip(names, contexts):
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        run = runner.run

        def capture(*args, run=run, **kwargs):
            out = run(*args, **kwargs)
            result = out[0] if isinstance(out, tuple) else out
            runs.append((result.x_cf, result.valid))
            return out

        runner.run = capture
        reports.append(asdict(run_scenario(get_scenario(name), context=context,
                                           runner=runner).report))
        entries = context.warm_starts.values()
        memo.append((len(entries), sum(entry.hits for entry in entries)))
    return runs, reports, memo


class TestWarmStartMemo:
    def test_shared_context_is_bit_identical_to_fresh_contexts(self):
        shared = prepare_context("adult", scale="smoke", seed=1)
        shared_runs, shared_reports, shared_memo = _fit_runs([shared] * 3)
        # the shared pass's first scenario already runs against a fresh
        # context; the other two get one each
        later = FIT_SCENARIOS[1:]
        fresh = [prepare_context("adult", scale="smoke", seed=1) for _ in later]
        fresh_runs, fresh_reports, fresh_memo = _fit_runs(fresh, later)

        assert len(shared_runs) == 3 and len(fresh_runs) == 2
        assert_bit_identical(shared_runs[1:], fresh_runs, context="shared vs fresh runs")
        assert_bit_identical(shared_reports[1:], fresh_reports,
                             context="shared vs fresh reports")
        # the CF-VAE warm start trains once, REVISE's VAE misses, and the
        # +inloss warm start is the one hit
        assert shared_memo == [(1, 0), (2, 0), (2, 1)]
        assert fresh_memo == [(1, 0), (1, 0)]
