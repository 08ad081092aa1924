"""Training loop for the feasibility-aware counterfactual VAE.

Implements the architecture of Figure 4: inputs flow through the
conditional VAE (encoder -> perturbed latent -> decoder), immutable
attributes are frozen, and the four-part loss — validity through the
frozen black-box, proximity, causal-constraint feasibility and sparsity —
trains the generator to emit feasible counterfactuals directly.  With
``density_weight_inloss`` / ``causal_weight_inloss`` configured the
objective grows to six parts: :meth:`CFVAEGenerator.prepare_inloss`
hosts the fitted differentiable surrogates
(:mod:`repro.density.differentiable`, :mod:`repro.causal.differentiable`)
and attaches them to the loss for the duration of training.
"""

from __future__ import annotations

import numpy as np

from ..nn import SGD, Adam, CompiledStep, Tensor, check_finite_loss, host
from ..utils.validation import check_2d, check_loop_sizes, resolve_desired
from .losses import FourPartLoss

__all__ = ["CFVAEGenerator"]


class CFVAEGenerator:
    """Feasible-counterfactual generator (the paper's model).

    Parameters
    ----------
    vae:
        :class:`repro.models.ConditionalVAE` (Table II architecture).
    blackbox:
        Trained :class:`repro.models.BlackBoxClassifier`.  Frozen for
        the duration of :meth:`fit` (and released afterwards, so the
        same instance stays retrainable).
    constraints:
        :class:`repro.constraints.ConstraintSet` — the unary or binary
        causal model.
    projector:
        :class:`repro.constraints.ImmutableProjector` freezing immutable
        attributes.
    config:
        :class:`repro.core.config.CFTrainingConfig`.
    rng:
        Generator for batching and latent perturbation noise.
    """

    def __init__(self, vae, blackbox, constraints, projector, config, rng=None):
        self.vae = vae
        self.blackbox = blackbox
        self.constraints = constraints
        self.projector = projector
        self.config = config
        self.rng = rng or np.random.default_rng(0)
        self.loss_fn = FourPartLoss(blackbox, constraints, config)
        self.history = []
        #: Per-epoch histories of *earlier* :meth:`fit` calls, oldest
        #: first; :attr:`history` always holds the latest fit only.
        self.history_segments = []
        self.inloss_density = None
        self.inloss_causal = None
        self._fitted = False

    @classmethod
    def from_trained(cls, vae, blackbox, constraints, projector, config, rng=None):
        """Wrap an already-trained VAE as a ready-to-generate generator.

        The warm-start entry point for the serving layer: weights come
        from an artifact store, so no :meth:`fit` call happens.  The
        generator starts in eval mode and :meth:`generate` works
        immediately; the blackbox is released (generation needs no
        gradients, and a serving rollover must be able to retrain it).
        """
        generator = cls(vae, blackbox, constraints, projector, config, rng=rng)
        generator.loss_fn.release()
        generator.vae.eval()
        generator._fitted = True
        return generator

    # -- helpers -----------------------------------------------------------
    def _generate_batch(self, x, desired):
        """One differentiable pass input -> counterfactual Tensor (noisy latent)."""
        mu, log_var = self.vae.encode(Tensor(x), desired)
        z = self.vae.reparameterize(mu, log_var)
        if self.config.latent_noise:
            z = z + host(self.rng.normal, 0.0, self.config.latent_noise, z.shape)
        decoded = self.vae.decode(z, desired)
        projected = self.projector.project_tensor(x, decoded)
        return projected, mu, log_var

    # -- in-loss surrogates -------------------------------------------------
    def prepare_inloss(self, reference=None, causal=None, desired_class=1):
        """Fit/attach the in-objective surrogates the config asks for.

        Parameters
        ----------
        reference:
            Encoded rows of the population counterfactuals should land
            in (typically the desired-class training rows); required
            when ``config.density_weight_inloss`` is set, unless a
            fitted surrogate was attached already.
        causal:
            A fitted causal model (wrapped automatically) or a loss
            surrogate exposing ``penalty(x, x_cf)``; required when
            ``config.causal_weight_inloss`` is set.
        desired_class:
            Class label the latent density surrogate conditions on.
        """
        cfg = self.config
        if cfg.density_weight_inloss and reference is not None:
            from ..density.differentiable import build_inloss_density

            model = build_inloss_density(
                cfg.loss_density, vae=self.vae, desired_class=desired_class)
            self.inloss_density = model.fit(reference)
        if cfg.causal_weight_inloss and causal is not None:
            if hasattr(causal, "penalty"):
                self.inloss_causal = causal
            else:
                from ..causal.differentiable import causal_loss_surrogate

                self.inloss_causal = causal_loss_surrogate(causal)
        return self

    # -- training ----------------------------------------------------------
    def fit(self, x, desired=None, verbose=False):
        """Train the generator on encoded inputs ``x``.

        ``desired`` defaults to flipping the black-box prediction of each
        row, which matches the CF definition (input class vs the desired,
        opposite class).  Returns ``self``; per-epoch loss-part averages
        accumulate in :attr:`history` (a re-fit moves the previous run
        into :attr:`history_segments` first).  Raises
        :class:`~repro.nn.TrainingDivergedError` at the first non-finite
        loss, before the optimiser steps on it.
        """
        check_loop_sizes(self.config.epochs, self.config.batch_size)
        x = check_2d(x, "x")  # rejects empty batches with a clean ValueError
        cfg = self.config.scaled_for(len(x))
        desired = resolve_desired(self.blackbox, x, desired)

        if self.history:
            self.history_segments.append(self.history)
        self.history = []

        if cfg.density_weight_inloss and self.inloss_density is None:
            # standalone fallback: the training rows are the reference
            from ..density.differentiable import build_inloss_density

            self.inloss_density = build_inloss_density(
                cfg.loss_density, vae=self.vae).fit(x)
        if cfg.causal_weight_inloss and self.inloss_causal is None:
            raise RuntimeError(
                "causal_weight_inloss is set but no causal surrogate is "
                "attached; call prepare_inloss(causal=...) first (the "
                "explainer's fit() does this automatically)")
        self.loss_fn.density_model = self.inloss_density
        self.loss_fn.causal_model = self.inloss_causal

        if cfg.warmstart_epochs:
            # Reconstruction warm-start: "the decoder must conduct a
            # faithful representation of the input data" (Section III-C).
            # Starting the CF objective from a faithful decoder prevents
            # the validity hinge from saturating the sigmoid outputs
            # before proximity/sparsity can anchor them.
            from ..models.training import train_reconstruction_vae

            train_reconstruction_vae(
                self.vae, x, desired, epochs=cfg.warmstart_epochs,
                lr=3e-3, batch_size=cfg.batch_size, beta=0.02, rng=self.rng)
            self.vae.train()

        if cfg.optimizer == "adam":
            optimizer = Adam(self.vae.parameters(), lr=cfg.learning_rate)
        else:
            optimizer = SGD(self.vae.parameters(), lr=cfg.learning_rate,
                            momentum=cfg.momentum)

        def step(x_batch, desired_batch):
            x_cf, mu, log_var = self._generate_batch(x_batch, desired_batch)
            total, _ = self.loss_fn(x_batch, x_cf, desired_batch, mu, log_var)
            # a replay does not call the loss: its parts are re-read from
            # the part nodes
            return total, self.loss_fn.part_nodes

        self.vae.train()
        n_rows = len(x)
        self.loss_fn.freeze()
        try:
            with CompiledStep(step, (x, desired), name="CFVAEGenerator.fit") as compiled:
                for epoch in range(cfg.epochs):
                    order = self.rng.permutation(n_rows)
                    epoch_parts = []
                    for start in range(0, n_rows, cfg.batch_size):
                        batch = order[start:start + cfg.batch_size]
                        optimizer.zero_grad()
                        total, part_nodes = compiled(batch)
                        parts = {name: node.item() for name, node in part_nodes.items()}
                        check_finite_loss(parts["total"], "CFVAEGenerator.fit",
                                          epoch, len(epoch_parts))
                        total.backward()
                        optimizer.step()
                        epoch_parts.append(parts)
                    averaged = {
                        key: float(np.mean([p[key] for p in epoch_parts]))
                        for key in epoch_parts[0]
                    }
                    self.history.append(averaged)
                    if verbose:
                        rendered = ", ".join(f"{k}={v:.4f}" for k, v in averaged.items())
                        print(f"epoch {epoch + 1}/{cfg.epochs}  {rendered}")
        finally:
            # the classifier leaves training exactly as retrainable as it
            # arrived — a later train_classifier/rollover must see its
            # parameters again
            self.loss_fn.release()
        self.vae.eval()
        self._fitted = True
        return self

    # -- generation -----------------------------------------------------------
    def generate(self, x, desired=None):
        """Generate counterfactuals for encoded rows ``x`` (ndarray out).

        Uses the deterministic posterior mean and projects immutable
        attributes back to their input values — the paper's
        "incorporated them again in the final prediction".  Runs entirely
        on the graph-free fast path: no autograd node is allocated.
        """
        if not self._fitted:
            raise RuntimeError("generator is not fitted; call fit() first")
        x = check_2d(x, "x")
        desired = resolve_desired(self.blackbox, x, desired)
        self.vae.eval()
        z, _ = self.vae.encode_array(x, desired)
        decoded = self.vae.decode_array(z, desired)
        return self.projector.project(x, decoded)
