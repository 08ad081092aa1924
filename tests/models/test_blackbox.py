"""Tests for the two-linear-layer black-box classifier."""

import numpy as np
import pytest

from repro.models import BlackBoxClassifier, accuracy, train_classifier


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    y = (x[:, 0] + 0.5 * x[:, 1] - 0.3 * x[:, 2] > 0).astype(int)
    return x, y


def make_model(seed=0, n_features=6):
    return BlackBoxClassifier(n_features, np.random.default_rng(seed))


class TestArchitecture:
    def test_two_linear_layers(self):
        from repro.nn import Linear
        model = make_model()
        linears = [m for m in model.modules() if isinstance(m, Linear)]
        assert len(linears) == 2  # "two linear layers" per Section III-C

    def test_logit_shape(self):
        model = make_model()
        assert model.predict_logits(np.zeros((5, 6))).shape == (5,)

    def test_proba_in_unit_interval(self):
        model = make_model()
        probs = model.predict_proba(np.random.default_rng(1).normal(size=(10, 6)))
        assert (probs >= 0).all() and (probs <= 1).all()

    def test_predict_binary(self):
        model = make_model()
        preds = model.predict(np.random.default_rng(1).normal(size=(10, 6)))
        assert set(np.unique(preds)) <= {0, 1}


class TestTraining:
    def test_loss_decreases(self):
        x, y = separable_data()
        model = make_model()
        history = train_classifier(model, x, y, epochs=10, rng=np.random.default_rng(0))
        assert history[-1] < history[0]

    def test_reaches_high_accuracy_on_separable(self):
        x, y = separable_data()
        model = make_model()
        train_classifier(model, x, y, epochs=40, rng=np.random.default_rng(0))
        assert accuracy(model, x, y) > 0.95

    def test_sgd_optimizer_path(self):
        x, y = separable_data(200)
        model = make_model()
        history = train_classifier(model, x, y, epochs=10, optimizer="sgd",
                                   lr=0.1, rng=np.random.default_rng(0))
        assert history[-1] < history[0]

    def test_unknown_optimizer_rejected(self):
        x, y = separable_data(50)
        with pytest.raises(ValueError):
            train_classifier(make_model(), x, y, optimizer="lbfgs")

    def test_rejects_row_mismatch(self):
        x, y = separable_data(50)
        with pytest.raises(ValueError):
            train_classifier(make_model(), x, y[:10])

    def test_rejects_nonbinary_labels(self):
        x, _ = separable_data(50)
        with pytest.raises(ValueError):
            train_classifier(make_model(), x, np.full(50, 2))

    def test_left_in_eval_mode(self):
        x, y = separable_data(50)
        model = make_model()
        train_classifier(model, x, y, epochs=1)
        assert not model.training

    @pytest.mark.parametrize("sizes, name", [
        ({"batch_size": -5}, "batch_size"),
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": 2.5}, "batch_size"),
        ({"epochs": -1}, "epochs"),
        ({"epochs": 1.0}, "epochs"),
    ])
    def test_rejects_degenerate_loop_sizes(self, sizes, name):
        x, y = separable_data(50)
        model = make_model()
        model.eval()
        before = model.state_dict()
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=name):
            train_classifier(model, x, y, rng=rng, **sizes)
        assert not model.training
        assert rng.bit_generator.state == state
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_zero_epochs_trains_nothing(self):
        x, y = separable_data(50)
        model = make_model()
        before = model.state_dict()
        assert train_classifier(model, x, y, epochs=0) == []
        for key, value in model.state_dict().items():
            np.testing.assert_array_equal(value, before[key])

    def test_deterministic_given_seeds(self):
        x, y = separable_data(100)
        model_a = make_model(seed=3)
        model_b = make_model(seed=3)
        train_classifier(model_a, x, y, epochs=3, rng=np.random.default_rng(1))
        train_classifier(model_b, x, y, epochs=3, rng=np.random.default_rng(1))
        np.testing.assert_allclose(
            model_a.predict_logits(x), model_b.predict_logits(x))


class TestOnBenchmarkData:
    def test_adult_classifier_beats_base_rate(self):
        from repro.data import load_dataset
        bundle = load_dataset("adult", n_instances=3000, seed=0)
        x_train, y_train = bundle.split("train")
        x_test, y_test = bundle.split("test")
        model = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
        train_classifier(model, x_train, y_train, epochs=25,
                         rng=np.random.default_rng(0))
        base_rate = max(y_test.mean(), 1 - y_test.mean())
        assert accuracy(model, x_test, y_test) > base_rate + 0.05
