"""Loss functions used across the reproduction.

Includes the classification losses for the black-box model, the
reconstruction/KL terms for the VAE, and the hinge validity term of the
paper's four-part counterfactual loss (Eq. 3).
"""

from __future__ import annotations

import numpy as np

from .tensor import as_tensor, host

__all__ = [
    "bce_with_logits",
    "hinge_loss",
    "mse_loss",
    "gaussian_kl",
    "logsumexp",
]


# Constants the losses derive from batch data, computed through
# :func:`~repro.nn.tensor.host` so a replayed training step recomputes them.
def _inverse_sum(weights):
    return 1.0 / weights.sum()


def _max_shift(data, axis):
    return np.max(data, axis=axis, keepdims=True)


def _negated_signs(desired):
    """``-(2 * desired - 1)``: -1 where class 1 is desired, +1 where class 0 is."""
    return -(2.0 * np.asarray(desired, dtype=np.float64) - 1.0)


def bce_with_logits(logits, targets, weights=None):
    """Binary cross-entropy on raw logits (numerically stable).

    Uses the identity ``max(z, 0) - z*y + log(1 + exp(-|z|))`` so large
    logits never overflow.  Optional per-element ``weights`` rescale each
    example's contribution (used for class balancing).
    """
    logits = as_tensor(logits)
    targets = as_tensor(targets)
    relu_part = logits.clip_min(0.0)
    abs_logits = logits.abs()
    softplus = ((-abs_logits).exp() + 1.0).log()
    per_element = relu_part - logits * targets + softplus
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        return (per_element * weights).sum() * host(_inverse_sum, weights)
    return per_element.mean()


def logsumexp(logits, axis=-1):
    """Differentiable log-sum-exp with max-shift stabilisation."""
    logits = as_tensor(logits)
    shift = host(_max_shift, logits.data, axis)
    shifted = logits - shift
    return (shifted.exp().sum(axis=axis, keepdims=True)).log() + shift


def hinge_loss(logits, desired, margin=1.0):
    """Hinge loss pushing binary ``logits`` toward the ``desired`` class.

    This is the validity term of the paper's Eq. 3: with the desired class
    encoded as a sign ``s in {-1, +1}``, the per-example loss is
    ``max(0, margin - s * logit)``.

    Parameters
    ----------
    logits:
        Raw scores of shape (batch,) — positive means class 1.
    desired:
        Array of 0/1 desired classes.
    margin:
        Decision margin; the paper uses the standard hinge (margin 1).
    """
    logits = as_tensor(logits)
    margins = (logits * host(_negated_signs, desired)) + margin
    return margins.clip_min(0.0).mean()


def mse_loss(prediction, target):
    """Mean squared error, used for continuous reconstruction checks."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    return ((prediction - target) ** 2).mean()


def gaussian_kl(mu, log_var):
    """KL divergence ``KL(N(mu, sigma) || N(0, 1))`` averaged over the batch.

    The standard VAE regulariser (Kingma & Welling):
    ``-0.5 * sum(1 + log_var - mu^2 - exp(log_var))``.
    """
    mu = as_tensor(mu)
    log_var = as_tensor(log_var)
    per_dim = (log_var + 1.0 - mu * mu - log_var.exp()) * (-0.5)
    return per_dim.sum(axis=1).mean()
