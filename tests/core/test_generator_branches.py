"""Branch-coverage tests for the CF generator and loss configuration."""

import numpy as np
import pytest
from dataclasses import replace

from repro.constraints import ImmutableProjector, build_constraints
from repro.core import CFTrainingConfig, FourPartLoss, fast_config
from repro.core.generator import CFVAEGenerator
from repro.data import load_dataset
from repro.models import BlackBoxClassifier, ConditionalVAE, train_classifier
from repro.nn import Tensor


@pytest.fixture(scope="module")
def pieces():
    bundle = load_dataset("adult", n_instances=1000, seed=0)
    x_train, y_train = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded,
                                  np.random.default_rng(0))
    train_classifier(blackbox, x_train, y_train, epochs=5,
                     rng=np.random.default_rng(0))
    return bundle, blackbox, x_train


def make_generator(bundle, blackbox, config):
    vae = ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3))
    return CFVAEGenerator(
        vae, blackbox, build_constraints(bundle.encoder, "unary"),
        ImmutableProjector(bundle.encoder), config,
        rng=np.random.default_rng(4))


class TestGeneratorBranches:
    def test_generate_before_fit_raises(self, pieces):
        bundle, blackbox, _ = pieces
        generator = make_generator(bundle, blackbox, fast_config(epochs=1))
        with pytest.raises(RuntimeError):
            generator.generate(bundle.encoded[:3])

    def test_no_warmstart_path(self, pieces):
        bundle, blackbox, x_train = pieces
        config = replace(fast_config(epochs=2), warmstart_epochs=0)
        generator = make_generator(bundle, blackbox, config)
        generator.fit(x_train[:300])
        assert len(generator.history) == 2

    def test_fit_rejects_non_int_batch_size(self, pieces):
        # a config that skipped its own validation still fails before
        # any training state is touched
        bundle, blackbox, x_train = pieces
        config = fast_config(epochs=1)
        object.__setattr__(config, "batch_size", 40.5)
        generator = make_generator(bundle, blackbox, config)
        with pytest.raises(ValueError, match="batch_size must be an int"):
            generator.fit(x_train[:100])
        assert generator.history == []

    def test_desired_length_validation(self, pieces):
        bundle, blackbox, x_train = pieces
        generator = make_generator(bundle, blackbox, fast_config(epochs=1))
        with pytest.raises(ValueError):
            generator.fit(x_train[:100], desired=np.ones(3, dtype=int))

    def test_sgd_optimizer_branch(self, pieces):
        bundle, blackbox, x_train = pieces
        config = replace(fast_config(epochs=1), optimizer="sgd",
                         learning_rate=0.01, momentum=0.5)
        generator = make_generator(bundle, blackbox, config)
        generator.fit(x_train[:200])
        assert generator.history


class TestLossBranches:
    def test_l2_proximity_metric(self, pieces):
        bundle, blackbox, x_train = pieces
        constraints = build_constraints(bundle.encoder, "unary")
        l1_loss = FourPartLoss(blackbox, constraints,
                               CFTrainingConfig(proximity_metric="l1"))
        l2_loss = FourPartLoss(blackbox, constraints,
                               CFTrainingConfig(proximity_metric="l2"))
        x = x_train[:20]
        x_cf = Tensor(np.clip(x + 0.1, 0, 1))
        desired = 1 - blackbox.predict(x)
        _, parts_l1 = l1_loss(x, x_cf, desired)
        _, parts_l2 = l2_loss(x, x_cf, desired)
        # for deltas ~0.1, squared distance is smaller than absolute
        assert parts_l2["proximity"] < parts_l1["proximity"]

    def test_kl_skipped_when_weight_zero(self, pieces):
        bundle, blackbox, x_train = pieces
        constraints = build_constraints(bundle.encoder, "unary")
        loss = FourPartLoss(blackbox, constraints,
                            CFTrainingConfig(kl_weight=0.0))
        x = x_train[:10]
        mu = Tensor(np.random.default_rng(0).random((10, 4)))
        log_var = Tensor(np.zeros((10, 4)))
        _, parts = loss(x, Tensor(x.copy()), 1 - blackbox.predict(x),
                        mu, log_var)
        assert "kl" not in parts
