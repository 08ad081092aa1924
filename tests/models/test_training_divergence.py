"""Fit loops fail loudly on divergence instead of persisting NaN weights.

``train_classifier``, ``train_reconstruction_vae`` and
``CFVAEGenerator.fit`` check each batch's scalar loss and raise
:class:`repro.nn.TrainingDivergedError` at the first non-finite one,
before the optimiser steps on it.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.constraints import ImmutableProjector, build_constraints
from repro.core import fast_config
from repro.core import generator as generator_module
from repro.core.generator import CFVAEGenerator
from repro.data import load_dataset
from repro.models import (
    BlackBoxClassifier,
    ConditionalVAE,
    train_classifier,
    train_reconstruction_vae,
)
from repro.models import blackbox as blackbox_module
from repro.nn import TrainingDivergedError, check_finite_loss


def snapshot(module):
    return {k: v.copy() for k, v in module.state_dict().items()}


def assert_state_equal(module, expected):
    state = module.state_dict()
    assert state.keys() == expected.keys()
    for key, value in expected.items():
        np.testing.assert_array_equal(state[key], value, err_msg=key)


class TestCheckFiniteLoss:
    def test_finite_loss_passes_through(self):
        assert check_finite_loss(0.25, "fit", 0, 0) == 0.25

    @pytest.mark.parametrize("loss", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_loss_raises_typed_error(self, loss):
        with pytest.raises(TrainingDivergedError, match="epoch 2, batch 5") as info:
            check_finite_loss(loss, "fit", 2, 5)
        assert (info.value.where, info.value.epoch, info.value.batch) == ("fit", 2, 5)
        assert isinstance(info.value, RuntimeError)


class TestReconstructionVAE:
    def test_huge_learning_rate_raises_and_keeps_weights_finite(self):
        # at lr=1e6 the old loop returned history [nan, nan, nan] and
        # left NaN weights behind
        rng = np.random.default_rng(0)
        x = rng.random((300, 12))
        vae = ConditionalVAE(12, np.random.default_rng(1))
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
            train_reconstruction_vae(vae, x, np.zeros(300), epochs=3, lr=1e6)
        assert info.value.where == "train_reconstruction_vae"
        assert not np.isfinite(info.value.loss)
        for name, value in vae.state_dict().items():
            assert np.isfinite(value).all(), name


class TestClassifier:
    def test_first_non_finite_loss_raises_before_the_step(self, monkeypatch):
        rng = np.random.default_rng(2)
        x = rng.random((64, 5))
        y = (rng.random(64) < 0.5).astype(int)
        model = BlackBoxClassifier(5, np.random.default_rng(3))
        before = snapshot(model)
        real_loss = blackbox_module.bce_with_logits
        monkeypatch.setattr(blackbox_module, "bce_with_logits",
                            lambda *a, **k: real_loss(*a, **k) * float("nan"))
        with pytest.raises(TrainingDivergedError) as info:
            train_classifier(model, x, y, epochs=2, batch_size=16)
        assert (info.value.where, info.value.epoch, info.value.batch) == (
            "train_classifier", 0, 0)
        assert_state_equal(model, before)


class TestCFVAEGenerator:
    def test_first_non_finite_loss_raises_before_the_step(self, monkeypatch):
        bundle = load_dataset("adult", n_instances=300, seed=0)
        blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
        vae = ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3))
        generator = CFVAEGenerator(
            vae, blackbox, build_constraints(bundle.encoder, "unary"),
            ImmutableProjector(bundle.encoder),
            replace(fast_config(epochs=2), warmstart_epochs=0),
            rng=np.random.default_rng(4))
        x = bundle.encoded[:200]
        batch_size = generator.config.scaled_for(len(x)).batch_size
        assert 2 * batch_size <= len(x)  # batch 1 has batch 0's shape: a replay
        # the fit's first rng draw is epoch 0's permutation (no warm start)
        second_batch = np.random.default_rng(4).permutation(len(x))[batch_size:2 * batch_size]
        poisoned = x.copy()
        poisoned[second_batch[0], 0] = np.nan
        # fit validates its input, so poison the rows after validation
        real_check = generator_module.check_2d
        monkeypatch.setattr(generator_module, "check_2d",
                            lambda rows, name: poisoned if rows is x else real_check(rows, name))
        before = snapshot(vae)
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as info:
            generator.fit(x)
        assert (info.value.where, info.value.epoch) == ("CFVAEGenerator.fit", 0)
        assert info.value.batch == 1
        # one step (batch 0) ran; the poisoned replay never stepped
        after = vae.state_dict()
        assert any(not np.array_equal(after[k], v) for k, v in before.items())
        for name, value in after.items():
            assert np.isfinite(value).all(), name
        # the black box is released from the loss even on the error path
        frozen = [p for _, p in blackbox.named_parameters(include_frozen=True)]
        assert frozen and all(p.requires_grad for p in frozen)
