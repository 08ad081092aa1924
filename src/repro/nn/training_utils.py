"""Training utilities: divergence guard, gradient clipping, LR schedules, early stopping.

Quality-of-life pieces a production training loop needs around the bare
optimisers — all used by the longer-running experiment configurations
and available to downstream users of :mod:`repro.nn`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TrainingDivergedError", "check_finite_loss",
    "clip_grad_norm", "StepDecay", "CosineDecay", "EarlyStopping",
]


class TrainingDivergedError(RuntimeError):
    """A fit loop met a non-finite loss.

    Raised before the optimiser steps on that loss, so the fit stops
    loudly instead of returning a model trained on it that would then
    be persisted and served.
    """

    def __init__(self, where, epoch, batch, loss):
        super().__init__(
            f"{where} diverged: non-finite loss {loss!r} at epoch {epoch}, "
            f"batch {batch} (try a lower learning rate)")
        self.where = where
        self.epoch = epoch
        self.batch = batch
        self.loss = loss


def check_finite_loss(loss, where, epoch, batch):
    """Return the scalar ``loss``; raise :class:`TrainingDivergedError` if non-finite."""
    if not math.isfinite(loss):
        raise TrainingDivergedError(where, epoch, batch, loss)
    return loss


def clip_grad_norm(parameters, max_norm):
    """Scale gradients in-place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total = np.sqrt(sum(float((p.grad ** 2).sum()) for p in parameters))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for parameter in parameters:
            parameter.grad = parameter.grad * scale
    return total


class StepDecay:
    """Multiply the optimiser's learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer, step_size, gamma=0.5):
        if step_size < 1:
            raise ValueError(f"step_size must be >= 1, got {step_size}")
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {gamma}")
        self.optimizer = optimizer
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self._epoch = 0

    def step(self):
        """Advance one epoch, decaying when the boundary is crossed."""
        self._epoch += 1
        if self._epoch % self.step_size == 0:
            self.optimizer.lr *= self.gamma
        return self.optimizer.lr


class CosineDecay:
    """Cosine-anneal the learning rate from its initial value to ``min_lr``."""

    def __init__(self, optimizer, total_epochs, min_lr=0.0):
        if total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {total_epochs}")
        self.optimizer = optimizer
        self.total_epochs = int(total_epochs)
        self.min_lr = float(min_lr)
        self._initial = optimizer.lr
        self._epoch = 0

    def step(self):
        """Advance one epoch; learning rate follows a half cosine."""
        self._epoch = min(self._epoch + 1, self.total_epochs)
        progress = self._epoch / self.total_epochs
        self.optimizer.lr = self.min_lr + 0.5 * (self._initial - self.min_lr) \
            * (1.0 + np.cos(np.pi * progress))
        return self.optimizer.lr


class EarlyStopping:
    """Stop training when a monitored loss stops improving.

    Parameters
    ----------
    patience:
        Number of consecutive non-improving epochs tolerated.
    min_delta:
        Required improvement over the best seen value.
    """

    def __init__(self, patience=5, min_delta=1e-4):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best = np.inf
        self._stale = 0

    def update(self, value):
        """Record one epoch's loss; returns True when training should stop."""
        if value < self.best - self.min_delta:
            self.best = float(value)
            self._stale = 0
        else:
            self._stale += 1
        return self._stale >= self.patience

    @property
    def should_stop(self):
        """Whether the patience budget is exhausted."""
        return self._stale >= self.patience
