"""Bit-parity of the training tape against its historical implementation.

The library's tape writes ``.grad`` on leaves only, skips gradients of
frozen and constant operands, builds nodes directly in ``_make``, and
updates all parameters in one fused flat-buffer optimizer step.  None of
that may move a single output bit.  Each case below trains twice from the
same seed in this process — once on the verbatim historical tape and
per-parameter optimisers (``tests/helpers/autograd_ref.py``), rebuilding
the graph every step, once on the library, whose training loops replay a
compiled step — and compares every ``state_dict()`` array, the loss history and
the produced counterfactuals byte for byte.  No golden files: both sides
run on the same numpy build, so the comparison holds across the CI numpy
matrix.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import ReviseExplainer
from repro.causal import fit_causal
from repro.constraints import ConstraintSet, ImmutableProjector, MonotonicIncreaseConstraint
from repro.core import CFVAEGenerator, fast_config, inloss_config
from repro.data import load_dataset
from repro.models import (
    BlackBoxClassifier,
    ConditionalVAE,
    train_classifier,
    train_reconstruction_vae,
)
from repro.nn import Tensor
from tests.helpers.autograd_ref import reference_tape
from tests.helpers.parity import _compare

# the one float type of repro.nn: each case checks its trained state is of it
DTYPES = ["float64"]


@pytest.fixture(scope="module")
def adult():
    bundle = load_dataset("adult", n_instances=300, seed=0)
    x, y = bundle.split("train")
    return bundle, x, y


def assert_bits_equal(expected, actual):
    """Recursive byte-for-byte equality, dtype and shape included."""

    def leaf(e, a, where):
        assert (e.dtype, e.shape) == (a.dtype, a.shape), where
        assert e.tobytes() == a.tobytes(), f"{where}: bits differ"

    _compare(expected, actual, "reference tape vs library", leaf)


def assert_tape_parity(run, dtype):
    """Run ``run()`` on the historical tape, then on the library; pin them."""
    with reference_tape():
        expected = run()
    actual = run()
    assert_bits_equal(expected, actual)
    assert {value.dtype for value in actual[0].values()} == {np.dtype(dtype)}
    return actual


def test_reference_tape_is_really_swapped_in():
    # guards every parity case below against comparing the library to itself
    x = Tensor([1.0, 2.0], requires_grad=True)
    with reference_tape():
        hidden = x * 3.0
        hidden.sum().backward()
        assert hidden.grad is not None
    hidden = x * 3.0
    hidden.sum().backward()
    assert hidden.grad is None


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_classifier_training(adult, dtype, optimizer):
    bundle, x, y = adult

    def run():
        model = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
        history = train_classifier(model, x, y, epochs=4, batch_size=64,
                                   optimizer=optimizer, balanced=True,
                                   rng=np.random.default_rng(1))
        return model.state_dict(), history

    assert_tape_parity(run, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
def test_reconstruction_vae(dtype):
    x = np.random.default_rng(0).random((300, 12))
    labels = (np.arange(300) % 2).astype(float)

    def run():
        vae = ConditionalVAE(12, np.random.default_rng(1))
        history = train_reconstruction_vae(vae, x, labels, epochs=3, batch_size=64,
                                           rng=np.random.default_rng(2))
        return vae.state_dict(), history

    assert_tape_parity(run, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_cfvae_fit_with_inloss_density_and_causal(adult, dtype, optimizer):
    bundle, x, y = adult
    desired_class = int(bundle.encoder.schema.desired_class)
    config = inloss_config(replace(fast_config(epochs=2), warmstart_epochs=1,
                                   optimizer=optimizer))
    causal = fit_causal("scm", bundle.encoder, x, y)

    def run():
        blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
        train_classifier(blackbox, x, y, epochs=3, rng=np.random.default_rng(0))
        generator = CFVAEGenerator(
            ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3)),
            blackbox,
            ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age")]),
            ImmutableProjector(bundle.encoder), config, rng=np.random.default_rng(4))
        generator.prepare_inloss(reference=x[np.asarray(y) == desired_class],
                                 causal=causal, desired_class=desired_class)
        generator.fit(x[:160])
        return (generator.vae.state_dict(), blackbox.state_dict(),
                generator.history, generator.generate(x[:20]))

    _, _, history, _ = assert_tape_parity(run, dtype)
    assert {"density", "causal"} <= set(history[0])


@pytest.mark.parametrize("dtype", DTYPES)
def test_revise_vae_fit_and_latent_search(adult, dtype):
    bundle, x, y = adult

    def run():
        blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
        train_classifier(blackbox, x, y, epochs=3, rng=np.random.default_rng(0))
        explainer = ReviseExplainer(bundle.encoder, blackbox, seed=0, steps=25,
                                    vae_epochs=3).fit(x, y)
        return explainer.vae.state_dict(), explainer.generate(x[:16])

    assert_tape_parity(run, dtype)
