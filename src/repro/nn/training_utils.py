"""Training divergence guard.

Every training and search loop checks each batch loss with :func:`check_finite_loss`
before the optimiser steps, so a diverged fit raises
:class:`TrainingDivergedError` instead of returning a broken model.
"""

from __future__ import annotations

import math

__all__ = ["TrainingDivergedError", "check_finite_loss"]


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
