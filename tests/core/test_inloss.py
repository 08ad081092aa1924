"""Six-part in-objective training: freeze lifecycle, parity and wiring.

Covers the training-loop regressions this PR fixed (the permanent
blackbox freeze, the duplicated delta subtraction, the scalar ``desired``
crash, zero-row fits, re-fit history clobbering) plus the six-part
contract: with both in-loss weights at zero, training and generation are
bit-identical to the four-part path — even with surrogates attached.  On
a small Adult workload, in-loss training never lowers validity.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.causal import ScmLossSurrogate, fit_causal
from repro.constraints import (
    ConstraintSet,
    ImmutableProjector,
    MonotonicIncreaseConstraint,
)
from repro.core import (
    CFTrainingConfig,
    CFVAEGenerator,
    FeasibleCFExplainer,
    FourPartLoss,
    fast_config,
    generate_candidates,
    inloss_config,
)
from repro.data import load_dataset
from repro.density import DifferentiableKde
from repro.models import BlackBoxClassifier, ConditionalVAE, train_classifier
from repro.nn import Adam, Tensor
from repro.utils.validation import resolve_desired
from tests.helpers.parity import assert_bit_identical


@pytest.fixture(scope="module")
def pieces():
    bundle = load_dataset("adult", n_instances=300, seed=0)
    x, y = bundle.split("train")
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=5, rng=np.random.default_rng(0))
    constraints = ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age")])
    return bundle, x, y, blackbox, constraints


def make_generator(bundle, x, y, config=None, attach_surrogates=False):
    """A fully deterministic generator; every rng is freshly seeded."""
    blackbox = BlackBoxClassifier(bundle.encoder.n_encoded, np.random.default_rng(0))
    train_classifier(blackbox, x, y, epochs=5, rng=np.random.default_rng(0))
    constraints = ConstraintSet([MonotonicIncreaseConstraint(bundle.encoder, "age")])
    vae = ConditionalVAE(bundle.encoder.n_encoded, np.random.default_rng(3))
    config = config or replace(fast_config(epochs=2), warmstart_epochs=2)
    generator = CFVAEGenerator(
        vae, blackbox, constraints, ImmutableProjector(bundle.encoder),
        config, rng=np.random.default_rng(4))
    if attach_surrogates:
        generator.inloss_density = DifferentiableKde(max_reference=64).fit(x)
        generator.inloss_causal = ScmLossSurrogate(
            fit_causal("scm", bundle.encoder, x, y))
    return generator


class TestFreezeLifecycle:
    def test_construction_freezes_nondestructively(self, pieces):
        bundle, x, y, _, constraints = pieces
        blackbox = BlackBoxClassifier(
            bundle.encoder.n_encoded, np.random.default_rng(0))
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        assert list(blackbox.parameters()) == []  # frozen: invisible to optimizers
        loss_fn.release()
        assert all(p.requires_grad for p in blackbox.parameters())

    def test_freeze_is_idempotent(self, pieces):
        bundle, _, _, _, constraints = pieces
        blackbox = BlackBoxClassifier(
            bundle.encoder.n_encoded, np.random.default_rng(0))
        loss_fn = FourPartLoss(blackbox, constraints, CFTrainingConfig())
        # a second freeze must not overwrite the recorded prior flags
        loss_fn.freeze()
        loss_fn.release()
        assert all(p.requires_grad for p in blackbox.parameters())
        loss_fn.release()  # no-op once released

    def test_blackbox_retrainable_after_fit(self, pieces):
        # the historical bug: FourPartLoss froze the classifier forever,
        # so a serving rollover's train_classifier() raised
        # "optimizer received no parameters"
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        generator.fit(x[:120])
        assert list(generator.blackbox.parameters())
        train_classifier(generator.blackbox, x, y, epochs=1,
                         rng=np.random.default_rng(1))  # must not raise

    def test_frozen_blackbox_rejected_by_optimizer(self, pieces):
        bundle, _, _, _, constraints = pieces
        blackbox = BlackBoxClassifier(
            bundle.encoder.n_encoded, np.random.default_rng(0))
        FourPartLoss(blackbox, constraints, CFTrainingConfig())
        with pytest.raises(ValueError, match="no parameters"):
            Adam(blackbox.parameters())

    def test_from_trained_releases(self, pieces):
        bundle, x, y, _, _ = pieces
        trained = make_generator(bundle, x, y)
        trained.fit(x[:120])
        warm = CFVAEGenerator.from_trained(
            trained.vae, trained.blackbox, trained.constraints,
            trained.projector, trained.config)
        assert list(warm.blackbox.parameters())


class TestDifferenceReuse:
    def test_parts_match_two_subtraction_reference(self, pieces):
        # the fixed duplication: proximity and sparsity built
        # ``x_cf - Tensor(x)`` independently; the shared delta must be
        # bit-identical to recomputing it per term
        from repro.core import sparsity_penalty

        _, x, _, blackbox, constraints = pieces
        cfg = CFTrainingConfig()
        loss_fn = FourPartLoss(blackbox, constraints, cfg)
        rng = np.random.default_rng(5)
        x_cf = np.clip(x + rng.normal(0.0, 0.05, size=x.shape), 0.0, 1.0)
        desired = 1 - blackbox.predict(x)
        _, parts = loss_fn(x, Tensor(x_cf.copy()), desired)

        proximity = (Tensor(x_cf) - Tensor(x)).abs().sum(axis=1).mean()
        sparsity = sparsity_penalty(
            Tensor(x_cf) - Tensor(x), cfg.sparsity_l1_weight,
            cfg.sparsity_l0_weight, cfg.sparsity_l0_tau)
        assert parts["proximity"] == proximity.item()
        assert parts["sparsity"] == sparsity.item()


class TestDesiredClasses:
    @pytest.fixture(scope="class")
    def generator(self, pieces):
        bundle, x, y, _, _ = pieces
        return make_generator(bundle, x, y).fit(x[:120])

    def test_scalar_broadcasts(self, pieces, generator):
        _, x, _, _, _ = pieces
        desired = resolve_desired(generator.blackbox, x[:7], 1)
        assert desired.tolist() == [1] * 7
        assert resolve_desired(generator.blackbox, x[:3], np.int64(0)).tolist() == [0, 0, 0]

    def test_generate_accepts_scalar_desired(self, pieces, generator):
        # the historical crash: len() of unsized object on a scalar
        _, x, _, _, _ = pieces
        out = generator.generate(x[:5], desired=0)
        assert out.shape == x[:5].shape

    def test_matrix_desired_rejected(self, pieces, generator):
        _, x, _, _, _ = pieces
        with pytest.raises(ValueError, match="scalar or 1-D"):
            resolve_desired(generator.blackbox, x[:4], np.zeros((4, 1)))

    def test_length_mismatch_rejected(self, pieces, generator):
        _, x, _, _, _ = pieces
        with pytest.raises(ValueError, match="row counts differ"):
            resolve_desired(generator.blackbox, x[:4], np.zeros(3))

    def test_none_flips_blackbox_prediction(self, pieces, generator):
        _, x, _, _, _ = pieces
        desired = resolve_desired(generator.blackbox, x[:10], None)
        assert desired.tolist() == (
            1 - generator.blackbox.predict(x[:10])).tolist()


class TestFitGuards:
    def test_zero_row_fit_rejected(self, pieces):
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        with pytest.raises(ValueError, match="non-empty"):
            generator.fit(x[:0])

    def test_refit_segments_history(self, pieces):
        bundle, x, y, _, _ = pieces
        generator = make_generator(bundle, x, y)
        generator.fit(x[:120])
        first = list(generator.history)
        generator.fit(x[:120])
        assert generator.history_segments == [first]
        assert len(generator.history) == generator.config.epochs
        assert generator.history is not first

    def test_causal_weight_without_surrogate_rejected(self, pieces):
        bundle, x, y, _, _ = pieces
        config = inloss_config(
            replace(fast_config(epochs=1), warmstart_epochs=1),
            density_weight=0.0)
        generator = make_generator(bundle, x, y, config=config)
        with pytest.raises(RuntimeError, match="prepare_inloss"):
            generator.fit(x[:64])


class TestSixPartTraining:
    def test_history_reports_density_and_causal(self, pieces):
        bundle, x, y, _, _ = pieces
        config = inloss_config(replace(fast_config(epochs=1), warmstart_epochs=1))
        generator = make_generator(bundle, x, y, config=config)
        desired_class = int(bundle.encoder.schema.desired_class)
        generator.prepare_inloss(
            reference=x[np.asarray(y) == desired_class],
            causal=fit_causal("scm", bundle.encoder, x, y),
            desired_class=desired_class)
        generator.fit(x[:120])
        assert {"density", "causal"} <= set(generator.history[0])

    def test_standalone_density_fallback_fits_on_x(self, pieces):
        bundle, x, y, _, _ = pieces
        config = inloss_config(
            replace(fast_config(epochs=1), warmstart_epochs=1),
            causal_weight=0.0)
        generator = make_generator(bundle, x, y, config=config)
        generator.fit(x[:120])
        assert generator.inloss_density is not None
        assert generator.inloss_density.n_reference > 0
        assert "density" in generator.history[0]


class TestZeroWeightParity:
    def test_loss_is_bit_identical_with_surrogates_attached(self, pieces):
        bundle, x, y, blackbox, constraints = pieces
        cfg = CFTrainingConfig()  # both in-loss weights default to 0
        plain = FourPartLoss(blackbox, constraints, cfg)
        loaded = FourPartLoss(
            blackbox, constraints, cfg,
            density_model=DifferentiableKde(max_reference=64).fit(x),
            causal_model=ScmLossSurrogate(fit_causal("scm", bundle.encoder, x, y)))
        desired = 1 - blackbox.predict(x)
        rng = np.random.default_rng(6)
        x_cf = np.clip(x + rng.normal(0.0, 0.05, size=x.shape), 0.0, 1.0)
        total_a, parts_a = plain(x, Tensor(x_cf.copy()), desired)
        total_b, parts_b = loaded(x, Tensor(x_cf.copy()), desired)
        assert total_a.item() == total_b.item()
        assert_bit_identical(parts_a, parts_b, context="zero-weight loss parts")

    def test_training_is_bit_identical_with_surrogates_attached(self, pieces):
        # the acceptance contract: weights at zero => the six-part path
        # trains and generates exactly like the four-part one
        bundle, x, y, _, _ = pieces
        four = make_generator(bundle, x, y)
        six = make_generator(bundle, x, y, attach_surrogates=True)
        four.fit(x[:120])
        six.fit(x[:120])
        assert_bit_identical(six.history, four.history,
                             context="zero-weight training history")
        np.testing.assert_array_equal(six.generate(x[120:160]),
                                      four.generate(x[120:160]))


class TestFingerprints:
    def test_pipeline_fingerprint_tracks_inloss_config(self, pieces):
        from repro.serve.pipeline import pipeline_fingerprint

        bundle, _, _, _, _ = pieces
        base = fast_config(epochs=2)

        def fingerprint(config):
            return pipeline_fingerprint(
                dataset="adult", n_instances=300, seed=0,
                constraint_kind="unary", config=config,
                schema=bundle.encoder.schema, blackbox_epochs=5)

        assert fingerprint(base) != fingerprint(inloss_config(base))
        assert fingerprint(inloss_config(base)) != fingerprint(
            inloss_config(base, density_weight=0.5))
        assert fingerprint(base) == fingerprint(fast_config(epochs=2))


class TestInLossValidity:
    """Six-part training keeps validity, on each of eight seeds.

    Both explainers share one black box and explain the same
    undesired-class test rows with one fixed 12-candidate latent sweep; a
    row counts as valid when any of its candidates flips the black box.
    (How many candidates also pass the density and causal checks moves
    with the seed in both directions, so it is not asserted.)
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_validity_no_worse_than_posthoc(self, seed):
        bundle = load_dataset("adult", n_instances=1500, seed=seed)
        x_train, y_train = bundle.split("train")
        x_train, y_train = x_train[:512], y_train[:512]
        config = fast_config(epochs=12)
        posthoc = FeasibleCFExplainer(
            bundle.encoder, constraint_kind="unary", config=config, seed=seed)
        posthoc.fit(x_train, y_train, blackbox_epochs=6)
        inloss = FeasibleCFExplainer(
            bundle.encoder, constraint_kind="unary", config=inloss_config(config),
            blackbox=posthoc.blackbox, seed=seed)
        inloss.fit(x_train, y_train)

        x_test, _ = bundle.split("test")
        undesired = posthoc.blackbox.predict(x_test) != bundle.schema.desired_class
        rows = x_test[undesired][:24]
        assert len(rows) > 0

        def validity(explainer):
            sets = generate_candidates(
                explainer, rows, n_candidates=12, rng=np.random.default_rng(seed + 4242))
            return np.mean([cs.valid.any() for cs in sets])

        assert validity(inloss) >= validity(posthoc)
