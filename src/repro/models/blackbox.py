"""The black-box classifier the counterfactuals must flip.

Section III-C, "Model Steps": *"At first, we train a black box model, in
this case two linear layers, to classify the input data into two
classes."*  This module implements exactly that — a two-linear-layer
network with a ReLU in between — plus its training loop.  The trained
model is frozen and reused by every explainer (ours and the baselines)
for validity prediction.
"""

from __future__ import annotations

import numpy as np

from ..nn import (
    SGD,
    Adam,
    CompiledStep,
    Linear,
    Module,
    ReLU,
    Sequential,
    bce_with_logits,
    check_finite_loss,
)
from ..nn.functional import sigmoid_forward
from ..utils.validation import check_2d, check_2d_fast, check_binary_labels, check_loop_sizes

__all__ = ["BlackBoxClassifier", "train_classifier", "accuracy"]


class BlackBoxClassifier(Module):
    """Two-linear-layer binary classifier.

    Parameters
    ----------
    n_features:
        Width of the encoded input.
    hidden:
        Width of the single hidden layer (default 16).
    rng:
        Seeded generator for weight init.
    """

    def __init__(self, n_features, rng, hidden=16):
        super().__init__()
        self.n_features = n_features
        self.hidden = hidden
        self.network = Sequential(
            Linear(n_features, hidden, rng, init="he"),
            ReLU(),
            Linear(hidden, 1, rng, init="xavier"),
        )

    def forward(self, x):
        """Raw logits of shape (batch,); positive favours class 1."""
        return self.network(x).reshape(-1)

    # -- inference helpers (graph-free fast path) --------------------------
    def predict_logits(self, x):
        """Logits as a plain ndarray, via the graph-free fast path.

        Uses :meth:`repro.nn.Module.forward_array`, so no Tensor node is
        allocated — this is the hot validity-check path every explainer
        and the candidate sweep hammer with small batches.
        """
        x = check_2d_fast(x, "x")
        return self.network.forward_array(x).reshape(-1)

    def predict_proba(self, x):
        """P(class = 1) per row."""
        return sigmoid_forward(self.predict_logits(x))

    def predict(self, x):
        """Hard 0/1 predictions."""
        return (self.predict_logits(x) > 0.0).astype(int)


def accuracy(model, x, y):
    """Fraction of rows of ``x`` classified as ``y``."""
    y = check_binary_labels(y, "y")
    return float((model.predict(x) == y).mean())


def train_classifier(model, x, y, epochs=30, lr=0.05, batch_size=256,
                     rng=None, optimizer="adam", balanced=False, verbose=False):
    """Train the black-box classifier with mini-batch BCE.

    With ``balanced=True`` examples are weighted inversely to their class
    frequency, which keeps the classifier from collapsing to the majority
    class on skewed datasets (KDD Census has ~12% positives).

    Returns the per-epoch mean loss history.  The classifier is left in
    eval mode, ready to be frozen inside the explainers.  Raises
    :class:`~repro.nn.TrainingDivergedError` at the first non-finite loss,
    before the optimiser steps on it.
    """
    check_loop_sizes(epochs, batch_size)
    x = check_2d(x, "x")
    y = check_binary_labels(y, "y").astype(np.float64)
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} rows but y has {len(y)}")
    rng = rng or np.random.default_rng(0)

    sample_weights = None
    if balanced:
        positive_rate = float(y.mean())
        if 0.0 < positive_rate < 1.0:
            weight_pos = 0.5 / positive_rate
            weight_neg = 0.5 / (1.0 - positive_rate)
            sample_weights = np.where(y == 1.0, weight_pos, weight_neg)

    if optimizer == "adam":
        opt = Adam(model.parameters(), lr=lr)
    elif optimizer == "sgd":
        opt = SGD(model.parameters(), lr=lr, momentum=0.9)
    else:
        raise ValueError(f"unknown optimizer {optimizer!r}")

    def step(x_batch, y_batch, batch_weights):
        return bce_with_logits(model.forward(x_batch), y_batch, weights=batch_weights)

    model.train()
    history = []
    n_rows = len(x)
    with CompiledStep(step, (x, y, sample_weights), name="train_classifier") as compiled:
        for epoch in range(epochs):
            order = rng.permutation(n_rows)
            losses = []
            for start in range(0, n_rows, batch_size):
                batch = order[start:start + batch_size]
                opt.zero_grad()
                loss = compiled(batch)
                value = check_finite_loss(loss.item(), "train_classifier", epoch, len(losses))
                loss.backward()
                opt.step()
                losses.append(value)
            history.append(float(np.mean(losses)))
            if verbose:
                print(f"epoch {epoch + 1}/{epochs}  bce={history[-1]:.4f}")
    model.eval()
    return history
