"""REVISE and CEM searches leave the shared black box trainable and fail loudly.

Both searches freeze the black box (and REVISE its own VAE) while they
run; the prior ``requires_grad`` flags come back afterwards, also on the
error path, so a later retrain of the same classifier sees its
parameters.  A non-finite search loss raises
:class:`repro.nn.TrainingDivergedError` before the optimiser steps on it.
"""

import numpy as np
import pytest

from repro.baselines import CEMExplainer, ReviseExplainer
from repro.data import load_dataset
from repro.models import BlackBoxClassifier, train_classifier
from repro.nn import TrainingDivergedError

EXPLAINERS = {
    "revise": lambda encoder, blackbox: ReviseExplainer(
        encoder, blackbox, seed=0, steps=5, vae_epochs=1),
    "cem": lambda encoder, blackbox: CEMExplainer(encoder, blackbox, seed=0, steps=5),
}
SEARCHES = {"revise": "ReviseExplainer.search", "cem": "CEMExplainer.search"}


@pytest.fixture()
def setup():
    bundle = load_dataset("adult", n_instances=300, seed=0)
    x, y = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=2, rng=np.random.default_rng(0))
    return bundle, blackbox, x, y


def flags(module):
    return [p.requires_grad for _, p in module.named_parameters(include_frozen=True)]


@pytest.mark.parametrize("method", sorted(EXPLAINERS))
def test_search_restores_the_black_box_and_it_retrains(setup, method):
    bundle, blackbox, x, y = setup
    explainer = EXPLAINERS[method](bundle.encoder, blackbox).fit(x, y)
    before = flags(blackbox)
    explainer.generate(x[:8], np.ones(8, dtype=int))
    assert flags(blackbox) == before
    assert len(blackbox.parameters()) == 4
    history = train_classifier(blackbox, x, y, epochs=1, rng=np.random.default_rng(1))
    assert np.isfinite(history).all()


def test_revise_restores_its_own_vae(setup):
    bundle, blackbox, x, y = setup
    explainer = EXPLAINERS["revise"](bundle.encoder, blackbox).fit(x, y)
    before = flags(explainer.vae)
    assert before and all(before)
    first = explainer.generate(x[:8], np.ones(8, dtype=int))
    assert flags(explainer.vae) == before
    # a second search starts from the same trainable state
    np.testing.assert_array_equal(explainer.generate(x[:8], np.ones(8, dtype=int)), first)


@pytest.mark.parametrize("method", sorted(EXPLAINERS))
def test_non_finite_search_loss_raises_before_the_step(setup, method):
    bundle, blackbox, x, y = setup
    explainer = EXPLAINERS[method](bundle.encoder, blackbox).fit(x, y)
    # inputs are validated, so poison the model the search runs through
    blackbox.network.layers[0].weight.data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError) as info:
        explainer.generate(x[:8], np.ones(8, dtype=int))
    assert (info.value.where, info.value.epoch, info.value.batch) == (SEARCHES[method], 0, 0)
    assert not np.isfinite(info.value.loss)
    assert all(flags(blackbox))  # released on the error path too
