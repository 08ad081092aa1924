"""Tests for the Table II conditional VAE."""

import numpy as np
import pytest

from repro.models import (
    DECODER_WIDTHS,
    ENCODER_WIDTHS,
    LATENT_DIM,
    ConditionalVAE,
    train_reconstruction_vae,
)
from repro.nn import Linear, Tensor


def make_vae(n_features=8, seed=0, dropout=0.3):
    return ConditionalVAE(n_features, np.random.default_rng(seed), dropout=dropout)


def toy_data(n=200, n_features=8, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.random((n, n_features))
    labels = (rng.random(n) < 0.5).astype(float)
    return x, labels


class TestArchitecture:
    def test_table2_constants(self):
        assert LATENT_DIM == 10
        assert ENCODER_WIDTHS == (20, 16, 14, 12)
        assert DECODER_WIDTHS == (12, 14, 16, 18)

    def test_encoder_layer_widths(self):
        vae = make_vae(n_features=8)
        linears = [m for m in vae.encoder_trunk.modules() if isinstance(m, Linear)]
        widths = [(layer.in_features, layer.out_features) for layer in linears]
        assert widths == [(9, 20), (20, 16), (16, 14), (14, 12)]

    def test_decoder_layer_widths(self):
        vae = make_vae(n_features=8)
        linears = [m for m in vae.decoder_trunk.modules() if isinstance(m, Linear)]
        widths = [(layer.in_features, layer.out_features) for layer in linears]
        assert widths == [(11, 12), (12, 14), (14, 16), (16, 18)]

    def test_heads(self):
        vae = make_vae()
        assert vae.mu_head.out_features == LATENT_DIM
        assert vae.log_var_head.out_features == LATENT_DIM
        assert vae.output_head.out_features == vae.n_features


class TestForward:
    def test_shapes(self):
        vae = make_vae()
        x, labels = toy_data(16)
        reconstruction, mu, log_var, z = vae(x, labels)
        assert reconstruction.shape == (16, 8)
        assert mu.shape == (16, LATENT_DIM)
        assert log_var.shape == (16, LATENT_DIM)
        assert z.shape == (16, LATENT_DIM)

    def test_mu_in_unit_interval(self):
        vae = make_vae()
        x, labels = toy_data(32)
        _, mu, _, _ = vae(x, labels)
        assert mu.data.min() >= 0.0 and mu.data.max() <= 1.0

    def test_reconstruction_in_unit_interval(self):
        vae = make_vae()
        x, labels = toy_data(32)
        reconstruction, _, _, _ = vae(x, labels)
        assert reconstruction.data.min() >= 0.0
        assert reconstruction.data.max() <= 1.0

    def test_default_labels_are_zeros(self):
        vae = make_vae()
        x, _ = toy_data(4)
        reconstruction, _, _, _ = vae(x)
        assert reconstruction.shape == (4, 8)

    def test_class_conditioning_changes_output(self):
        vae = make_vae()
        vae.eval()
        x, _ = toy_data(8)
        out0 = vae.reconstruct(x, np.zeros(8))
        out1 = vae.reconstruct(x, np.ones(8))
        assert not np.allclose(out0, out1)

    def test_gradients_reach_all_parameters(self):
        vae = make_vae()
        x, labels = toy_data(8)
        reconstruction, mu, log_var, _ = vae(x, labels)
        loss = reconstruction.sum() + mu.sum() + log_var.sum()
        loss.backward()
        missing = [name for name, p in vae.named_parameters() if p.grad is None]
        assert not missing


class TestReparameterisation:
    def test_stochastic_in_train_mode(self):
        vae = make_vae(dropout=0.0)
        x, labels = toy_data(8)
        mu, log_var = vae.encode(Tensor(x), labels)
        z1 = vae.reparameterize(mu, log_var)
        z2 = vae.reparameterize(mu, log_var)
        assert not np.allclose(z1.data, z2.data)

    def test_sample_latent_shape(self):
        vae = make_vae()
        x, labels = toy_data(8)
        z = vae.sample_latent(x, labels)
        assert z.shape == (8, LATENT_DIM)

    def test_decode_latent(self):
        vae = make_vae()
        z = np.random.default_rng(0).random((6, LATENT_DIM))
        out = vae.decode_latent(z, np.ones(6))
        assert out.shape == (6, 8)
        assert (out >= 0).all() and (out <= 1).all()


class TestReconstructionTraining:
    def test_loss_decreases(self):
        vae = make_vae(dropout=0.1)
        x, labels = toy_data(300)
        history = train_reconstruction_vae(
            vae, x, labels, epochs=8, lr=3e-3, rng=np.random.default_rng(0))
        assert history[-1] < history[0]

    def test_reconstruction_better_than_mean_on_structured_data(self):
        # Low-rank structured data: a VAE must beat the column-mean baseline.
        rng = np.random.default_rng(3)
        factors = rng.normal(size=(400, 2))
        mixing = rng.normal(size=(2, 8))
        x = 1.0 / (1.0 + np.exp(-(factors @ mixing)))
        labels = (factors[:, 0] > 0).astype(float)
        vae = make_vae(dropout=0.0)
        # low beta: the sigmoid mu head (Table II) conflicts with a strong
        # N(0,1) prior, so data fidelity needs a gentle KL weight
        train_reconstruction_vae(vae, x, labels, epochs=80, lr=5e-3, beta=0.05,
                                 rng=np.random.default_rng(0))
        reconstruction = vae.reconstruct(x, labels)
        err = np.abs(reconstruction - x).mean()
        baseline = np.abs(x - x.mean(axis=0)).mean()
        assert err < baseline * 0.95

    def test_rejects_label_mismatch(self):
        vae = make_vae()
        x, labels = toy_data(50)
        with pytest.raises(ValueError):
            train_reconstruction_vae(vae, x, labels[:10])

    def test_left_in_eval_mode(self):
        vae = make_vae()
        x, labels = toy_data(60)
        train_reconstruction_vae(vae, x, labels, epochs=1)
        assert not vae.training

    @pytest.mark.parametrize("sizes, name", [
        ({"batch_size": -5}, "batch_size"),
        ({"batch_size": 0}, "batch_size"),
        ({"batch_size": True}, "batch_size"),
        ({"epochs": -1}, "epochs"),
        ({"epochs": 2.0}, "epochs"),
    ])
    def test_rejects_degenerate_loop_sizes(self, sizes, name):
        vae = make_vae()
        vae.eval()
        x, labels = toy_data(60)
        before = vae.state_dict()
        rng = np.random.default_rng(1)
        states = [rng.bit_generator.state, vae._noise_rng.bit_generator.state]
        with pytest.raises(ValueError, match=name):
            train_reconstruction_vae(vae, x, labels, rng=rng, **sizes)
        assert not vae.training
        assert [rng.bit_generator.state, vae._noise_rng.bit_generator.state] == states
        for key, value in vae.state_dict().items():
            np.testing.assert_array_equal(value, before[key])
