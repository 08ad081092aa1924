"""Tests for the CFVAEGenerator and the FeasibleCFExplainer public API."""

import numpy as np
import pytest

from repro.core import CFBatchResult, FeasibleCFExplainer, fast_config
from repro.data import load_dataset


def fitted_explainer(kind="unary", n=2500, epochs=8, seed=0):
    bundle = load_dataset("adult", n_instances=n, seed=seed)
    x_train, y_train = bundle.split("train")
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind=kind,
        config=fast_config(epochs=epochs), seed=seed)
    explainer.fit(x_train, y_train, blackbox_epochs=15)
    return bundle, explainer


class TestFitValidation:
    def test_explain_before_fit_raises(self):
        bundle = load_dataset("adult", n_instances=300, seed=0)
        explainer = FeasibleCFExplainer(bundle.encoder)
        with pytest.raises(RuntimeError):
            explainer.explain(bundle.encoded[:5])

    def test_history_empty_before_fit(self):
        bundle = load_dataset("adult", n_instances=300, seed=0)
        assert FeasibleCFExplainer(bundle.encoder).history == []

    @pytest.mark.parametrize("bad,message", [
        ("nonbinary", "0/1"), ("short", "labels for"), ("missing", "required")])
    def test_fit_rejects_bad_labels_with_pretrained_blackbox(self, bad, message):
        """The labels are checked even when no black box is trained."""
        bundle, explainer = fitted_explainer(n=400, epochs=1)
        x_train, y_train = bundle.split("train")
        labels = np.array(y_train)
        if bad == "nonbinary":
            labels[:5] = 2
        elif bad == "short":
            labels = labels[:-1]
        else:
            labels = None
        again = FeasibleCFExplainer(
            bundle.encoder, config=fast_config(epochs=1),
            blackbox=explainer.blackbox)
        with pytest.raises(ValueError, match=message):
            again.fit(x_train, labels)
        assert again.generator is None

    def test_rejects_non_2d(self):
        bundle, explainer = fitted_explainer(n=400, epochs=2)
        with pytest.raises(ValueError):
            explainer.explain(np.zeros(bundle.encoder.n_encoded))


class TestTrainingBehaviour:
    def test_loss_decreases(self):
        _, explainer = fitted_explainer(epochs=10)
        history = explainer.history
        assert history[-1]["total"] < history[0]["total"]

    def test_history_has_all_parts(self):
        _, explainer = fitted_explainer(n=400, epochs=2)
        assert set(explainer.history[0]) >= {
            "validity", "proximity", "feasibility", "sparsity", "total"}

    def test_pretrained_blackbox_reused(self):
        bundle = load_dataset("adult", n_instances=600, seed=0)
        x_train, y_train = bundle.split("train")
        from repro.models import BlackBoxClassifier, train_classifier
        blackbox = BlackBoxClassifier(bundle.encoder.n_encoded,
                                      np.random.default_rng(9))
        train_classifier(blackbox, x_train, y_train, epochs=5)
        explainer = FeasibleCFExplainer(
            bundle.encoder, config=fast_config(epochs=2),
            blackbox=blackbox, seed=0)
        explainer.fit(x_train, y_train)
        assert explainer.blackbox is blackbox


class TestExplainOutputs:
    def test_result_structure(self):
        bundle, explainer = fitted_explainer()
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test)
        assert isinstance(result, CFBatchResult)
        assert len(result) == len(x_test)
        assert result.x_cf.shape == x_test.shape
        assert result.valid.dtype == bool
        assert result.feasible.dtype == bool

    def test_validity_high_after_training(self):
        bundle, explainer = fitted_explainer(epochs=12)
        x_test, _ = bundle.split("test")
        negatives = x_test[explainer.blackbox.predict(x_test) == 0]
        result = explainer.explain(negatives)
        assert result.validity_rate > 0.8

    def test_feasibility_high_with_unary_constraint(self):
        bundle, explainer = fitted_explainer(epochs=12)
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test)
        assert result.feasibility_rate > 0.7

    def test_immutables_never_change(self):
        bundle, explainer = fitted_explainer(n=600, epochs=3)
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test)
        mask = bundle.encoder.immutable_mask()
        np.testing.assert_allclose(result.x_cf[:, mask], result.x[:, mask])

    def test_desired_defaults_to_flip(self):
        bundle, explainer = fitted_explainer(n=600, epochs=3)
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test)
        np.testing.assert_array_equal(
            result.desired, 1 - explainer.blackbox.predict(x_test))

    def test_explicit_desired_respected(self):
        bundle, explainer = fitted_explainer(n=600, epochs=3)
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test[:10], desired=np.ones(10, dtype=int))
        np.testing.assert_array_equal(result.desired, np.ones(10))

    def test_explain_frame_roundtrip(self):
        bundle, explainer = fitted_explainer(n=600, epochs=3)
        subset = bundle.frame.take(bundle.test_idx[:8])
        result = explainer.explain_frame(subset)
        assert len(result) == 8

    def test_decoded_frames(self):
        bundle, explainer = fitted_explainer(n=600, epochs=3)
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test[:5])
        decoded = result.decoded()
        assert decoded.n_rows == 5
        assert set(decoded.column_names) == set(bundle.schema.feature_names)

    def test_comparison_rendering(self):
        bundle, explainer = fitted_explainer(n=600, epochs=3)
        x_test, _ = bundle.split("test")
        result = explainer.explain(x_test[:3])
        text = result.comparison(0)
        assert "x true" in text and "x pred" in text
        assert "age" in text


class TestBinaryConstraintModel:
    def test_binary_kind_trains_and_scores(self):
        bundle, explainer = fitted_explainer(kind="binary", epochs=12)
        assert explainer.constraint_kind == "binary"
        x_test, _ = bundle.split("test")
        negatives = x_test[explainer.blackbox.predict(x_test) == 0]
        result = explainer.explain(negatives)
        assert 0.0 <= result.feasibility_rate <= 1.0
        assert result.validity_rate > 0.5


class TestDeterminism:
    def test_same_seed_same_cfs(self):
        bundle_a, explainer_a = fitted_explainer(n=500, epochs=3, seed=7)
        bundle_b, explainer_b = fitted_explainer(n=500, epochs=3, seed=7)
        x = bundle_a.encoded[bundle_a.test_idx[:10]]
        np.testing.assert_allclose(
            explainer_a.explain(x).x_cf, explainer_b.explain(x).x_cf)
