"""The paper's counterfactual loss (Eq. 3 + Section III-C), extensible to six parts.

``total = validity (hinge) + proximity (L1) + feasibility (constraint
penalties) + sparsity (L0/L1 on the feature delta)``, plus the VAE's KL
regulariser.  When the config sets ``density_weight_inloss`` /
``causal_weight_inloss`` and a fitted surrogate is attached, two more
differentiable terms join the objective: a density pull toward the
reference population (:mod:`repro.density.differentiable`) and a causal
residual penalty built from the structural equations
(:mod:`repro.causal.differentiable`).  Each term is weighted by the
training config and reported separately so experiments can inspect the
trade-offs.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, as_tensor, gaussian_kl, hinge_loss

__all__ = ["sparsity_penalty", "FourPartLoss"]


def sparsity_penalty(delta, l1_weight, l0_weight, tau):
    """Differentiable ``g(x' - x)`` sparsity term.

    Both pieces are *per-row sums averaged over the batch*, so their scale
    is independent of the encoded width: ``l1_weight`` scales the summed
    absolute delta, ``l0_weight`` scales a smooth L0 surrogate
    ``sum(1 - exp(-|delta| / tau))`` that approximates the number of
    changed features (``tau`` controls how sharply "changed" saturates).
    """
    delta = as_tensor(delta)
    absolute = delta.abs()
    term = Tensor(0.0)
    if l1_weight:
        term = term + absolute.sum(axis=1).mean() * l1_weight
    if l0_weight:
        soft_l0 = 1.0 - (absolute * (-1.0 / tau)).exp()
        term = term + soft_l0.sum(axis=1).mean() * l0_weight
    return term


class FourPartLoss:
    """Callable bundling the loss components against a frozen classifier.

    Historically four parts (validity, proximity, feasibility, sparsity);
    with in-loss surrogates attached and their config weights non-zero it
    grows to six.  The four-part path is bit-identical whenever both
    in-loss weights are zero, regardless of attached surrogates.

    Parameters
    ----------
    blackbox:
        Trained :class:`repro.models.BlackBoxClassifier`; its parameters
        receive no updates, only gradients *through* it reach the
        counterfactual.  Construction freezes it non-destructively:
        :meth:`release` restores the prior ``requires_grad`` flags so the
        same instance stays retrainable (rollover, ensembling).
    constraints:
        :class:`repro.constraints.ConstraintSet` providing the
        feasibility penalty.
    config:
        :class:`repro.core.config.CFTrainingConfig` with the term weights.
    density_model:
        Optional fitted in-loss density surrogate exposing
        ``penalty(x_cf, desired) -> Tensor`` (see
        :mod:`repro.density.differentiable`).
    causal_model:
        Optional fitted in-loss causal surrogate exposing
        ``penalty(x, x_cf) -> Tensor`` (see
        :mod:`repro.causal.differentiable`).
    """

    def __init__(self, blackbox, constraints, config, density_model=None,
                 causal_model=None):
        self.blackbox = blackbox
        self.constraints = constraints
        self.config = config
        self.density_model = density_model
        self.causal_model = causal_model
        self._prior_flags = None
        #: Part name -> scalar Tensor of the latest call (see ``__call__``).
        self.part_nodes = {}
        # Freeze the classifier: gradients flow through, never into, it.
        self.freeze()

    # -- blackbox freeze lifecycle ------------------------------------
    def freeze(self):
        """Switch the blackbox's ``requires_grad`` flags off, remembering
        the prior values.

        Idempotent: calling twice does not overwrite the recorded flags,
        so ``freeze(); freeze(); release()`` still restores the original
        state.  The freeze must span the whole forward *and* backward of
        a training step — the autograd checks ``requires_grad`` at
        backward time, so releasing early would leak gradients into the
        classifier.
        """
        if self._prior_flags is None:
            self._prior_flags = [
                (tensor, tensor.requires_grad)
                for _, tensor in self.blackbox.named_parameters(include_frozen=True)
            ]
        for tensor, _ in self._prior_flags:
            tensor.requires_grad = False
        return self

    def release(self):
        """Restore the ``requires_grad`` flags recorded by :meth:`freeze`.

        After release the blackbox is trainable again — a later
        ``train_classifier`` (e.g. a serving rollover retrain) sees its
        parameters.  Also drops :attr:`part_nodes`, so the last step's
        graph does not outlive training.  Otherwise a no-op if the loss
        never froze anything.
        """
        self.part_nodes = {}
        if self._prior_flags is None:
            return self
        for tensor, flag in self._prior_flags:
            tensor.requires_grad = flag
        self._prior_flags = None
        return self

    def __call__(self, x, x_cf, desired, mu=None, log_var=None):
        """Compute the weighted total and the individual parts.

        Parameters
        ----------
        x:
            Original encoded inputs (ndarray).
        x_cf:
            Generated counterfactuals (Tensor in the training graph).
        desired:
            0/1 array of desired classes per row.
        mu, log_var:
            Optional VAE posterior stats for the KL term.

        Returns
        -------
        (total, parts):
            ``total`` is the weighted scalar Tensor; ``parts`` maps each
            component name to its unweighted float value.  The Tensors
            behind ``parts`` stay in :attr:`part_nodes` (same keys), which
            a compiled training step re-reads after each replay.
        """
        x = np.asarray(x)
        x_cf = as_tensor(x_cf)
        cfg = self.config

        logits = self.blackbox.forward(x_cf)
        validity = hinge_loss(logits, desired, margin=cfg.hinge_margin)
        # per-row distance (summed over columns, averaged over the batch)
        # so the proximity pressure does not shrink with encoded width.
        # Our method uses L1 (Eq. 3); Mahajan et al.'s ELBO-style objective
        # corresponds to the squared (l2) variant, which tolerates many
        # small drifts and is what costs it sparsity in Table IV.
        difference = x_cf - Tensor(x)
        if cfg.proximity_metric == "l2":
            proximity = (difference ** 2).sum(axis=1).mean()
        else:
            proximity = difference.abs().sum(axis=1).mean()
        feasibility = self.constraints.penalty(x, x_cf)
        sparsity = sparsity_penalty(
            difference, cfg.sparsity_l1_weight, cfg.sparsity_l0_weight,
            cfg.sparsity_l0_tau)

        total = (validity * cfg.validity_weight
                 + proximity * cfg.proximity_weight
                 + feasibility * cfg.feasibility_weight
                 + sparsity)
        nodes = {
            "validity": validity,
            "proximity": proximity,
            "feasibility": feasibility,
            "sparsity": sparsity,
        }
        if cfg.density_weight_inloss and self.density_model is not None:
            density = self.density_model.penalty(x_cf, desired)
            total = total + density * cfg.density_weight_inloss
            nodes["density"] = density
        if cfg.causal_weight_inloss and self.causal_model is not None:
            causal = self.causal_model.penalty(x, x_cf)
            total = total + causal * cfg.causal_weight_inloss
            nodes["causal"] = causal
        if mu is not None and log_var is not None and cfg.kl_weight:
            kl = gaussian_kl(mu, log_var)
            total = total + kl * cfg.kl_weight
            nodes["kl"] = kl
        nodes["total"] = total
        self.part_nodes = nodes
        return total, {name: node.item() for name, node in nodes.items()}
