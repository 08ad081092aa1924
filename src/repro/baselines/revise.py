"""REVISE — Joshi et al. (2019).

"Towards Realistic Individual Recourse": gradient descent in the latent
space of a data-fidelity VAE.  The latent code is initialised at the
encoding of the input and optimised to minimise

``hinge(f(decode(z)), desired) + lambda * ||decode(z) - x||_1``

so the counterfactual stays on the learned data manifold.  We batch the
optimisation — all instances' latents update simultaneously (they are
independent in the loss).
"""

from __future__ import annotations

import numpy as np

from ..models import ConditionalVAE, train_reconstruction_vae
from ..nn import Adam, CompiledStep, Tensor, check_finite_loss, hinge_loss, no_grad
from .base import BaseCFExplainer, frozen

__all__ = ["ReviseExplainer"]


class ReviseExplainer(BaseCFExplainer):
    """Latent-space gradient search in a reconstruction VAE.

    Parameters
    ----------
    distance_weight:
        Weight ``lambda`` of the L1 proximity term.
    steps:
        Gradient steps in latent space.
    lr:
        Adam learning rate for the latent codes.
    vae_epochs:
        Epochs for the underlying reconstruction VAE fit.
    """

    name = "revise"

    def __init__(self, encoder, blackbox, seed=0, distance_weight=0.5,
                 steps=300, lr=0.1, vae_epochs=50):
        super().__init__(encoder, blackbox, seed=seed)
        self.distance_weight = float(distance_weight)
        self.steps = int(steps)
        self.lr = float(lr)
        self.vae_epochs = int(vae_epochs)
        self.vae = None

    def _fit(self, x_train, y_train):
        # CARLA's REVISE searches a plain (unconditional) VAE, so the
        # class input is pinned to zero during both fitting and search.
        self.vae = ConditionalVAE(
            self.encoder.n_encoded, np.random.default_rng(self.seed + 1),
            dropout=0.0)
        train_reconstruction_vae(
            self.vae, x_train, np.zeros(len(x_train)), epochs=self.vae_epochs,
            lr=3e-3, beta=0.02, rng=np.random.default_rng(self.seed + 2))

    def _generate(self, x, desired):
        with frozen(self.vae, self.blackbox):
            return self._search(x, desired)

    def _search(self, x, desired):
        self.vae.eval()
        zeros = np.zeros(len(x))

        with no_grad():
            mu, _ = self.vae.encode(Tensor(x), zeros)
        z = Tensor(mu.data.copy(), requires_grad=True)
        optimizer = Adam([z], lr=self.lr)
        x_tensor = Tensor(x)

        def step():
            decoded = self.vae.decode(z, zeros)
            validity = hinge_loss(self.blackbox.forward(decoded), desired,
                                  margin=0.5)
            distance = (decoded - x_tensor).abs().mean()
            return validity + distance * self.distance_weight

        with CompiledStep(step, name="ReviseExplainer.search") as compiled:
            for index in range(self.steps):
                optimizer.zero_grad()
                loss = compiled()
                check_finite_loss(loss.item(), "ReviseExplainer.search", 0, index)
                loss.backward()
                optimizer.step()

        with no_grad():
            return self.vae.decode(Tensor(z.data), zeros).data
