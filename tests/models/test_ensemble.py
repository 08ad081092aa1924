"""Ensemble of black-box variants: fused scoring parity and persistence."""

import numpy as np
import pytest

from repro.models import (
    ENSEMBLE_MODES,
    BlackBoxClassifier,
    BlackBoxEnsemble,
    train_classifier,
    train_ensemble,
)
from tests.helpers.loops import predict_logits_loop
from tests.helpers.parity import assert_close, perturbed


def separable_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 6))
    y = (x[:, 0] + 0.5 * x[:, 1] - 0.3 * x[:, 2] > 0).astype(int)
    return x, y


@pytest.fixture(scope="module")
def trained():
    x, y = separable_data()
    return train_ensemble(x, y, n_members=4, seed=0, epochs=6), x, y


class TestFusedScoring:
    def test_hard_predictions_bit_identical_to_member_loop(self, trained):
        ensemble, x, _ = trained
        rows = perturbed(x[:32], np.random.default_rng(7), 0.1, m=3)
        fused = ensemble.predict_logits_all(rows)
        loop = predict_logits_loop(ensemble, rows)
        np.testing.assert_array_equal(fused > 0.0, loop > 0.0)

    def test_logits_match_to_blas_precision(self, trained):
        ensemble, x, _ = trained
        rows = perturbed(x[:32], np.random.default_rng(8), 0.1, m=3)
        assert_close(ensemble.predict_logits_all(rows),
                     predict_logits_loop(ensemble, rows),
                     context="fused vs per-member logits")

    def test_member_columns_match_direct_member_calls(self, trained):
        ensemble, x, _ = trained
        logits = predict_logits_loop(ensemble, x[:16])
        for k, member in enumerate(ensemble.members):
            np.testing.assert_array_equal(
                logits[:, k], member.predict_logits(x[:16]))

    def test_shapes(self, trained):
        ensemble, x, _ = trained
        assert ensemble.predict_logits_all(x[:5]).shape == (5, 4)
        assert ensemble.predict_all(x[:5]).shape == (5, 4)
        assert ensemble.predict(x[:5]).shape == (5,)
        assert len(ensemble) == ensemble.n_members == 4

    def test_agreement_is_member_vote_fraction(self, trained):
        ensemble, x, _ = trained
        desired = np.ones(10, dtype=int)
        agreement = ensemble.agreement(x[:10], desired)
        votes = ensemble.predict_all(x[:10])
        np.testing.assert_allclose(agreement, (votes == 1).mean(axis=1))
        assert ((agreement >= 0.0) & (agreement <= 1.0)).all()

    def test_majority_predict_follows_member_votes(self, trained):
        ensemble, x, _ = trained
        votes = ensemble.predict_all(x[:40]).mean(axis=1)
        preds = ensemble.predict(x[:40])
        decisive = votes != 0.5
        np.testing.assert_array_equal(
            preds[decisive], (votes[decisive] > 0.5).astype(int))


class TestTraining:
    def test_members_are_genuine_retrains(self, trained):
        ensemble, x, _ = trained
        logits = predict_logits_loop(ensemble, x[:64])
        for k in range(1, ensemble.n_members):
            assert not np.array_equal(logits[:, 0], logits[:, k])

    def test_every_member_learns_the_separable_task(self, trained):
        ensemble, x, y = trained
        for member in ensemble.members:
            assert (member.predict(x) == y).mean() > 0.9

    def test_bootstrap_mode_differs_from_seed_mode(self):
        x, y = separable_data(200)
        seeded = train_ensemble(x, y, n_members=2, seed=0, epochs=3)
        boot = train_ensemble(x, y, n_members=2, mode="bootstrap",
                              seed=0, epochs=3)
        assert boot.mode == "bootstrap"
        assert seeded.fingerprint() != boot.fingerprint()

    def test_include_prepends_the_primary_model_untouched(self):
        x, y = separable_data(200)
        primary = BlackBoxClassifier(x.shape[1], np.random.default_rng(42))
        train_classifier(primary, x, y, epochs=3,
                         rng=np.random.default_rng(43))
        ensemble = train_ensemble(x, y, n_members=3, seed=0, epochs=3,
                                  include=primary)
        assert ensemble.members[0] is primary
        assert ensemble.n_members == 3

    def test_deterministic_given_seed(self):
        x, y = separable_data(200)
        a = train_ensemble(x, y, n_members=2, seed=5, epochs=3)
        b = train_ensemble(x, y, n_members=2, seed=5, epochs=3)
        assert a.fingerprint() == b.fingerprint()


class TestValidation:
    def test_rejects_empty_member_list(self):
        with pytest.raises(ValueError, match="at least one member"):
            BlackBoxEnsemble([])

    def test_rejects_non_classifier_members(self):
        with pytest.raises(TypeError, match="expected BlackBoxClassifier"):
            BlackBoxEnsemble(["gandalf"])

    def test_rejects_mismatched_architectures(self):
        a = BlackBoxClassifier(6, np.random.default_rng(0))
        b = BlackBoxClassifier(7, np.random.default_rng(0))
        with pytest.raises(ValueError, match="shared architecture"):
            BlackBoxEnsemble([a, b])

    def test_rejects_unknown_mode(self):
        member = BlackBoxClassifier(6, np.random.default_rng(0))
        with pytest.raises(ValueError, match="mode must be one of"):
            BlackBoxEnsemble([member], mode="psychic")
        x, y = separable_data(50)
        with pytest.raises(ValueError, match="mode must be one of"):
            train_ensemble(x, y, mode="psychic")

    def test_train_rejects_nonpositive_size(self):
        x, y = separable_data(50)
        with pytest.raises(ValueError, match="n_members"):
            train_ensemble(x, y, n_members=0)

    def test_modes_constant(self):
        assert ENSEMBLE_MODES == ("seed", "bootstrap")


class TestPersistence:
    def test_state_round_trip_preserves_predictions(self, trained):
        ensemble, x, _ = trained
        rebuilt = BlackBoxEnsemble.from_state(ensemble.get_state())
        np.testing.assert_array_equal(
            rebuilt.predict_logits_all(x[:32]),
            ensemble.predict_logits_all(x[:32]))
        assert rebuilt.mode == ensemble.mode
        assert rebuilt.seed == ensemble.seed

    def test_round_trip_preserves_fingerprint(self, trained):
        ensemble, _, _ = trained
        rebuilt = BlackBoxEnsemble.from_state(ensemble.get_state())
        assert rebuilt.fingerprint() == ensemble.fingerprint()

    def test_fingerprint_tracks_member_weights(self, trained):
        ensemble, x, y = trained
        other = train_ensemble(x, y, n_members=4, seed=99, epochs=6)
        assert other.fingerprint() != ensemble.fingerprint()

    def test_from_state_rejects_foreign_kind(self):
        with pytest.raises(ValueError, match="not an ensemble state"):
            BlackBoxEnsemble.from_state({"kind": "density"})

    def test_from_state_rejects_missing_member(self, trained):
        ensemble, _, _ = trained
        state = {k: v for k, v in ensemble.get_state().items()
                 if not k.startswith("member3.")}
        with pytest.raises(ValueError, match="missing member 3"):
            BlackBoxEnsemble.from_state(state)
