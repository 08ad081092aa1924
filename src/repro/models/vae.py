"""The class-conditional Variational Autoencoder of Table II.

Architecture (paper Table II):

* Encoder: ``num_features + 1`` -> 20 -> 16 -> 14 -> 12 -> latent, ReLU
  after every layer, 30% dropout, sigmoid on the final mean head.  The
  "+1" is the class conditioning — the desired class is appended as an
  extra input column (the paper trains the generator towards the desired
  class, following Mahajan et al.).
* Decoder: ``latent + 1`` -> 12 -> 14 -> 16 -> 18 -> ``num_features``,
  ReLU + dropout per layer, sigmoid output so reconstructions live in
  [0, 1] like the min-max/one-hot encoding.  (Table II lists the last
  decoder input as 20 where the previous output is 18; we treat that as
  a typo and keep the consistent 18.)
* Latent dimension 10 ("The size Latent space vector is adjusted to 10
  features").

The encoder produces ``(mu, log_var)``; sampling uses the standard
reparameterisation trick so gradients flow to both heads.
"""

from __future__ import annotations

import numpy as np

from ..nn import Dropout, Linear, Module, ReLU, Sequential, Tensor, host, no_grad
from ..nn.functional import sigmoid_forward

__all__ = ["ConditionalVAE", "LATENT_DIM", "ENCODER_WIDTHS", "DECODER_WIDTHS"]

LATENT_DIM = 10
ENCODER_WIDTHS = (20, 16, 14, 12)
DECODER_WIDTHS = (12, 14, 16, 18)
DROPOUT_P = 0.3


def _class_column(labels):
    """The class labels as a float64 ``(n, 1)`` column (a view when no
    conversion is needed)."""
    return np.asarray(labels, dtype=np.float64).reshape(-1, 1)


def _mlp(widths, rng, dropout_rng, dropout_p):
    """Stack of Linear -> ReLU -> Dropout blocks following ``widths``."""
    layers = []
    for in_width, out_width in zip(widths[:-1], widths[1:]):
        layers.append(Linear(in_width, out_width, rng, init="he"))
        layers.append(ReLU())
        layers.append(Dropout(dropout_p, dropout_rng))
    return Sequential(*layers)


class ConditionalVAE(Module):
    """Table II VAE, conditioned on the (desired) class label.

    Parameters
    ----------
    n_features:
        Width of the encoded tabular input.
    rng:
        Seeded generator for weight init; an independent stream is split
        off for dropout masks and reparameterisation noise.
    latent_dim:
        Latent width (paper: 10).
    dropout:
        Per-layer dropout probability (paper: 0.3).
    """

    def __init__(self, n_features, rng, latent_dim=LATENT_DIM, dropout=DROPOUT_P):
        super().__init__()
        self.n_features = n_features
        self.latent_dim = latent_dim
        noise_seed = int(rng.integers(0, 2 ** 63 - 1))
        self._noise_rng = np.random.default_rng(noise_seed)

        encoder_widths = (n_features + 1,) + ENCODER_WIDTHS
        self.encoder_trunk = _mlp(encoder_widths, rng, self._noise_rng, dropout)
        self.mu_head = Linear(ENCODER_WIDTHS[-1], latent_dim, rng, init="xavier")
        self.log_var_head = Linear(ENCODER_WIDTHS[-1], latent_dim, rng, init="xavier")

        decoder_widths = (latent_dim + 1,) + DECODER_WIDTHS
        self.decoder_trunk = _mlp(decoder_widths, rng, self._noise_rng, dropout)
        self.output_head = Linear(DECODER_WIDTHS[-1], n_features, rng, init="xavier")

    # -- pieces ------------------------------------------------------------
    @staticmethod
    def _with_class(x, labels):
        """Append the class label as an extra column."""
        column = host(_class_column, labels)
        return Tensor.concatenate([x, Tensor(column)], axis=1)

    def encode(self, x, labels):
        """Map inputs + class to ``(mu, log_var)``.

        ``mu`` passes through a sigmoid (Table II's "L5 + Sigmoid"), so
        the latent mean lives in (0, 1); ``log_var`` is unconstrained but
        clipped in :meth:`reparameterize` for numerical safety.
        """
        hidden = self.encoder_trunk(self._with_class(x, labels))
        mu = self.mu_head(hidden).sigmoid()
        log_var = self.log_var_head(hidden)
        return mu, log_var

    def reparameterize(self, mu, log_var):
        """Sample ``z = mu + sigma * eps`` with pathwise gradients."""
        eps = host(self._noise_rng.standard_normal, mu.shape)
        floor = Tensor(host(np.full, log_var.shape, -10.0))
        sigma = (log_var * 0.5).maximum(floor).exp()
        return mu + sigma * eps

    def decode(self, z, labels):
        """Map latent + class back to feature space, sigmoid bounded."""
        hidden = self.decoder_trunk(self._with_class(z, labels))
        return self.output_head(hidden).sigmoid()

    def forward(self, x, labels=None):
        """Full pass: returns ``(reconstruction, mu, log_var, z)``."""
        if labels is None:
            labels = np.zeros(len(x) if hasattr(x, "__len__") else x.shape[0])
        mu, log_var = self.encode(x, labels)
        z = self.reparameterize(mu, log_var)
        return self.decode(z, labels), mu, log_var, z

    def __call__(self, x, labels=None):
        from ..nn import as_tensor
        return self.forward(as_tensor(x), labels)

    # -- inference helpers (graph-free fast path) -----------------------------
    # These run entirely on :meth:`repro.nn.Module.forward_array`; no
    # Tensor node is allocated.  They share the numpy kernels of
    # :mod:`repro.nn.functional` with the graph ops, so outputs are
    # numerically identical to the ``no_grad`` graph path.
    @staticmethod
    def _with_class_array(x, labels):
        """ndarray twin of :meth:`_with_class`."""
        x = np.asarray(x)
        if x.dtype.type is not np.float64:
            x = x.astype(np.float64)
        return np.concatenate([x, _class_column(labels)], axis=1)

    def encode_array(self, x, labels):
        """Graph-free :meth:`encode`: ``(mu, log_var)`` as plain ndarrays."""
        hidden = self.encoder_trunk.forward_array(self._with_class_array(x, labels))
        mu = sigmoid_forward(self.mu_head.forward_array(hidden))
        log_var = self.log_var_head.forward_array(hidden)
        return mu, log_var

    def decode_array(self, z, labels):
        """Graph-free :meth:`decode`: features as a plain ndarray."""
        hidden = self.decoder_trunk.forward_array(self._with_class_array(z, labels))
        return sigmoid_forward(self.output_head.forward_array(hidden))

    def reconstruct(self, x, labels):
        """Deterministic eval-mode reconstruction (z = mu), as ndarray."""
        self.eval()
        mu, _ = self.encode_array(x, labels)
        return self.decode_array(mu, labels)

    def sample_latent(self, x, labels):
        """Eval-mode stochastic latent samples, as ndarray.

        Encoding runs graph-free; the sample itself reuses the single
        :meth:`reparameterize` implementation (under ``no_grad``) so the
        sigma formula and its log-var floor live in exactly one place.
        """
        self.eval()
        mu, log_var = self.encode_array(x, labels)
        with no_grad():
            return self.reparameterize(Tensor(mu), Tensor(log_var)).data

    def decode_latent(self, z, labels):
        """Eval-mode decode of plain latent ndarray (graph-free)."""
        self.eval()
        return self.decode_array(z, labels)
