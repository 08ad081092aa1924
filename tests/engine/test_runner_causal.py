"""Engine runner hosting a causal model: repair placement, diagnostics,
score-only mode and the Table IV causal column."""

import numpy as np
import pytest

from repro.causal import CAUSAL_TOLERANCE, MinedCausalModel, ScmCausalModel
from repro.data import load_dataset
from repro.engine import CandidateBatch, CFStrategy, EngineRunner
from repro.models import BlackBoxClassifier, train_classifier


class _SweepStrategy(CFStrategy):
    """Deterministic strategy proposing a fixed noisy sweep."""

    name = "sweep-probe"

    def __init__(self, m=4, scale=0.1, seed=0):
        self.m = m
        self.scale = scale
        self.seed = seed

    def fit(self, x_train, y_train=None):
        return self

    def propose(self, x, desired=None):
        x = np.asarray(x, dtype=np.float64)
        if desired is None:
            desired = np.zeros(len(x), dtype=int)
        rng = np.random.default_rng(self.seed)
        candidates = np.clip(
            x[:, None, :] + rng.normal(0.0, self.scale, (len(x), self.m, x.shape[1])),
            0.0, 1.0)
        return CandidateBatch(x=x, desired=np.asarray(desired, dtype=int),
                              candidates=candidates)


@pytest.fixture(scope="module")
def context():
    bundle = load_dataset("adult", n_instances=900, seed=2)
    x_train, y_train = bundle.split("train")
    blackbox = BlackBoxClassifier(x_train.shape[1], np.random.default_rng(0))
    train_classifier(blackbox, x_train, y_train, epochs=3,
                     rng=np.random.default_rng(1))
    blackbox.eval()
    return bundle, blackbox


def test_selected_counterfactuals_are_causally_consistent(context):
    bundle, blackbox = context
    causal = ScmCausalModel(bundle.encoder)
    runner = EngineRunner(bundle.encoder, blackbox, causal=causal)
    x = bundle.encoded[:30]
    result = runner.run(_SweepStrategy(), x)
    np.testing.assert_allclose(
        causal.score(x, result.x_cf), np.zeros(len(x)), atol=CAUSAL_TOLERANCE)


def test_diagnostics_report_pre_repair_distance(context):
    bundle, blackbox = context
    causal = ScmCausalModel(bundle.encoder)
    runner = EngineRunner(bundle.encoder, blackbox, causal=causal)
    x = bundle.encoded[:30]
    _, diagnostics = runner.run(_SweepStrategy(), x, return_diagnostics=True)
    row_causal = diagnostics["row_causal"]
    assert row_causal.shape == (30,)
    assert (row_causal >= 0).all()
    assert row_causal.max() > 0  # noisy sweeps need some repair


def test_runner_without_causal_has_no_causal_diagnostics(context):
    bundle, blackbox = context
    runner = EngineRunner(bundle.encoder, blackbox)
    _, diagnostics = runner.run(
        _SweepStrategy(), bundle.encoded[:10], return_diagnostics=True)
    assert "row_causal" not in diagnostics


def test_evaluate_fills_the_causal_column(context):
    bundle, blackbox = context
    x_train, _ = bundle.split("train")
    causal = MinedCausalModel(
        bundle.encoder, relations=[("education", "age", 0.02)])
    runner = EngineRunner(bundle.encoder, blackbox, causal=causal)
    x = bundle.encoded[:25]
    report = runner.evaluate(_SweepStrategy(), x, x_train=x_train)
    assert report.causal_plausibility is not None
    assert 0.0 <= report.causal_plausibility <= 100.0
    plain = EngineRunner(bundle.encoder, blackbox)
    assert plain.evaluate(
        _SweepStrategy(), x, x_train=x_train).causal_plausibility is None


def test_repair_runs_on_single_candidate_batches(context):
    bundle, blackbox = context
    causal = ScmCausalModel(bundle.encoder)
    runner = EngineRunner(bundle.encoder, blackbox, causal=causal)
    x = bundle.encoded[:15]
    result, diagnostics = runner.run(
        _SweepStrategy(m=1), x, return_diagnostics=True)
    assert diagnostics["row_causal"].shape == (15,)
    np.testing.assert_allclose(
        causal.score(x, result.x_cf), np.zeros(len(x)), atol=CAUSAL_TOLERANCE)
