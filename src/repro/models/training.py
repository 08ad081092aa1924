"""Reconstruction training for the conditional VAE.

The paper's CF-VAE training (validity + proximity + feasibility +
sparsity) lives in :mod:`repro.core.generator`.  This module provides the
plain data-fidelity objective — reconstruction + KL — that the REVISE and
C-CHVAE baselines need (both search the latent space of an ordinary VAE)
and that is also useful for warm-starting the CF model.
"""

from __future__ import annotations

import numpy as np

from ..nn import Adam, CompiledStep, check_finite_loss, gaussian_kl, mse_loss
from ..utils.validation import check_2d

__all__ = ["train_reconstruction_vae"]


def train_reconstruction_vae(vae, x, labels, epochs=30, lr=1e-3, batch_size=256,
                             rng=None, beta=0.5, verbose=False):
    """Fit ``vae`` to reconstruct ``x`` conditioned on ``labels``.

    Loss per batch: ``MSE(x_hat, x) + beta * KL(q(z|x) || N(0, I))``.
    Returns the per-epoch loss history; raises
    :class:`~repro.nn.TrainingDivergedError` at the first non-finite loss.
    """
    x = check_2d(x, "x")
    labels = np.asarray(labels, dtype=np.float64)
    if len(labels) != len(x):
        raise ValueError(f"labels ({len(labels)}) and x ({len(x)}) row counts differ")
    rng = rng or np.random.default_rng(0)

    def step(x_batch, labels_batch):
        reconstruction, mu, log_var, _ = vae(x_batch, labels_batch)
        return mse_loss(reconstruction, x_batch) + gaussian_kl(mu, log_var) * beta

    optimizer = Adam(vae.parameters(), lr=lr)
    vae.train()
    history = []
    n_rows = len(x)
    with CompiledStep(step, (x, labels), name="train_reconstruction_vae") as compiled:
        for epoch in range(epochs):
            order = rng.permutation(n_rows)
            losses = []
            for start in range(0, n_rows, batch_size):
                batch = order[start:start + batch_size]
                optimizer.zero_grad()
                loss = compiled(batch)
                value = check_finite_loss(
                    loss.item(), "train_reconstruction_vae", epoch, len(losses))
                loss.backward()
                optimizer.step()
                losses.append(value)
            history.append(float(np.mean(losses)))
            if verbose:
                print(f"vae loss {history[-1]:.5f}")
    vae.eval()
    return history
