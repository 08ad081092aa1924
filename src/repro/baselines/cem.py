"""CEM (pertinent negatives) — Dhurandhar et al. (2018).

"Explanations based on the Missing": the pertinent-negative mode finds a
*minimal, sparse* perturbation ``delta`` such that ``x + delta`` is
classified as the desired class, by minimising

``hinge(f(x + delta), desired) + beta * ||delta||_1 + ||delta||_2^2``

with proximal gradient descent (ISTA): a gradient step on the smooth
part followed by soft-thresholding for the L1 term.  The elastic-net
regulariser is why CEM wins the sparsity column of Table IV while paying
in validity and feasibility — it has no data-manifold or causal terms.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, check_finite_loss, hinge_loss
from .base import BaseCFExplainer, frozen

__all__ = ["CEMExplainer"]


class CEMExplainer(BaseCFExplainer):
    """Pertinent-negative search with ISTA and elastic-net regularisation.

    Parameters
    ----------
    beta:
        L1 weight (soft-threshold level is ``beta * lr``).
    l2_weight:
        L2 ("ridge") weight on the perturbation.
    kappa:
        Confidence margin in the hinge term.
    steps, lr:
        ISTA iterations and step size.
    """

    name = "cem"

    def __init__(self, encoder, blackbox, seed=0, beta=0.5, l2_weight=0.5,
                 kappa=0.3, steps=200, lr=0.05):
        super().__init__(encoder, blackbox, seed=seed)
        self.beta = float(beta)
        self.l2_weight = float(l2_weight)
        self.kappa = float(kappa)
        self.steps = int(steps)
        self.lr = float(lr)

    def _fit(self, x_train, y_train):
        """CEM needs no training — it only queries the classifier."""

    def _generate(self, x, desired):
        with frozen(self.blackbox):
            return self._search(x, desired)

    def _search(self, x, desired):
        delta = np.zeros_like(x)
        mutable = ~self.projector.mask
        best = x.copy()
        best_found = np.zeros(len(x), dtype=bool)

        for index in range(self.steps):
            delta_tensor = Tensor(delta, requires_grad=True)
            candidate = Tensor(x) + delta_tensor
            # sum-reduce so each row's gradient magnitude is independent of
            # the batch size (hinge_loss/mean would shrink it below the
            # soft-threshold level for large batches)
            hinge = hinge_loss(self.blackbox.forward(candidate), desired,
                               margin=self.kappa) * len(x)
            ridge = (delta_tensor ** 2).sum(axis=1).sum() * self.l2_weight
            loss = hinge + ridge
            check_finite_loss(loss.item(), "CEMExplainer.search", 0, index)
            loss.backward()
            gradient = delta_tensor.grad

            # gradient step on the smooth part, then soft-threshold (ISTA)
            stepped = delta - self.lr * gradient
            threshold = self.beta * self.lr
            delta = np.sign(stepped) * np.maximum(np.abs(stepped) - threshold, 0.0)
            delta[:, ~mutable] = 0.0
            # keep candidates inside the valid encoded range
            delta = np.clip(x + delta, 0.0, 1.0) - x

            predictions = self.blackbox.predict(x + delta)
            hits = predictions == desired
            improved = hits & (
                ~best_found
                | (np.abs(delta).sum(axis=1) < np.abs(best - x).sum(axis=1)))
            best[improved] = (x + delta)[improved]
            best_found |= hits

        # rows never flipped return their last iterate (still sparse)
        best[~best_found] = (x + delta)[~best_found]
        return best
