"""Contract tests every baseline must satisfy (shared behaviours)."""

import numpy as np
import pytest

from repro.baselines import (
    CCHVAEExplainer,
    CEMExplainer,
    DiceRandomExplainer,
    FACEExplainer,
    MahajanExplainer,
    ReviseExplainer,
)
from repro.core import fast_config

FAST_KWARGS = {
    MahajanExplainer: {"config": fast_config(epochs=4)},
    ReviseExplainer: {"vae_epochs": 15, "steps": 60},
    CCHVAEExplainer: {"vae_epochs": 15, "n_candidates": 20},
    CEMExplainer: {"steps": 60},
    DiceRandomExplainer: {"max_attempts": 25},
    FACEExplainer: {"max_vertices": 500},
}

ALL_BASELINES = list(FAST_KWARGS)


def build(cls, bundle, blackbox, seed=0):
    return cls(bundle.encoder, blackbox, seed=seed, **FAST_KWARGS[cls])


@pytest.mark.parametrize("cls", ALL_BASELINES)
class TestBaselineContract:
    def test_generate_before_fit_raises(self, adult_setup, cls):
        bundle, blackbox, _, _, negatives = adult_setup
        explainer = build(cls, bundle, blackbox)
        with pytest.raises(RuntimeError):
            explainer.generate(negatives)

    def test_output_shape_and_range(self, adult_setup, cls):
        bundle, blackbox, x_train, y_train, negatives = adult_setup
        explainer = build(cls, bundle, blackbox)
        explainer.fit(x_train, y_train)
        cf = explainer.generate(negatives)
        assert cf.shape == negatives.shape
        assert np.isfinite(cf).all()

    def test_immutables_projected(self, adult_setup, cls):
        bundle, blackbox, x_train, y_train, negatives = adult_setup
        explainer = build(cls, bundle, blackbox)
        explainer.fit(x_train, y_train)
        cf = explainer.generate(negatives)
        mask = bundle.encoder.immutable_mask()
        np.testing.assert_allclose(cf[:, mask], negatives[:, mask])

    def test_fit_rejects_nonbinary_labels(self, adult_setup, cls):
        bundle, blackbox, x_train, y_train, _ = adult_setup
        labels = np.array(y_train)
        labels[:10] = 2
        with pytest.raises(ValueError, match="0/1"):
            build(cls, bundle, blackbox).fit(x_train, labels)

    def test_fit_rejects_label_count_mismatch(self, adult_setup, cls):
        bundle, blackbox, x_train, y_train, _ = adult_setup
        with pytest.raises(ValueError, match="labels for"):
            build(cls, bundle, blackbox).fit(x_train, y_train[:-1])

    def test_desired_length_validation(self, adult_setup, cls):
        bundle, blackbox, x_train, y_train, negatives = adult_setup
        explainer = build(cls, bundle, blackbox)
        explainer.fit(x_train, y_train)
        with pytest.raises(ValueError):
            explainer.generate(negatives, desired=np.ones(3, dtype=int))

    def test_achieves_some_validity(self, adult_setup, cls):
        bundle, blackbox, x_train, y_train, negatives = adult_setup
        explainer = build(cls, bundle, blackbox)
        explainer.fit(x_train, y_train)
        cf = explainer.generate(negatives)
        validity = (blackbox.predict(cf) == 1).mean()
        # every method should flip at least some inputs, even fast-config
        assert validity > 0.1

    def test_name_is_set(self, adult_setup, cls):
        bundle, blackbox, _, _, _ = adult_setup
        assert build(cls, bundle, blackbox).name != "baseline"
