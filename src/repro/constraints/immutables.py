"""Immutable-attribute handling (Section III-C, "Immutable Attributes").

The paper disables immutable attributes (race, gender, sex) during VAE
training and re-inserts them in the final prediction.  We implement that
as a projection: generated outputs are overwritten with the original
values on every encoded column belonging to an immutable feature — both
inside the differentiable training graph and at generation time.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, as_tensor, host
from .base import Constraint

__all__ = ["ImmutableProjector", "ImmutablesRespected"]


class ImmutableProjector:
    """Force immutable encoded columns of a counterfactual back to the input."""

    def __init__(self, encoder):
        self.encoder = encoder
        self.mask = encoder.immutable_mask()

    @property
    def has_immutables(self):
        """Whether the schema declares any immutable feature."""
        return bool(self.mask.any())

    def project(self, x, x_cf):
        """ndarray version: returns ``x_cf`` with immutable columns from ``x``.

        ``x_cf`` may be a flat ``(n, d)`` matrix or a candidate tensor of
        shape ``(n, m, d)`` holding ``m`` candidates per input row.  The
        3-D form projects the whole batch in one broadcast assignment —
        no per-candidate loop and no materialised ``np.repeat(x, m)``.
        """
        x = np.asarray(x)
        x_cf = np.asarray(x_cf, dtype=np.float64).copy()
        if x_cf.ndim == 3:
            x_cf[:, :, self.mask] = x[:, None, self.mask]
        else:
            x_cf[:, self.mask] = x[:, self.mask]
        return x_cf

    def project_tensor(self, x, x_cf):
        """Differentiable version used inside the training loss.

        Gradients flow only through mutable columns — immutable columns
        are replaced by constants, exactly "disabling" them for training.
        """
        x_cf = as_tensor(x_cf)
        cond = np.broadcast_to(self.mask, x_cf.shape)
        return Tensor.where(cond, Tensor(np.asarray(x)), x_cf)


class ImmutablesRespected(Constraint):
    """Evaluation-only constraint: immutable columns must be unchanged.

    Useful for auditing third-party explainers that do not project; the
    penalty is the L1 drift on immutable columns, so it can also be used
    as a soft training signal if projection is disabled.
    """

    def __init__(self, encoder, tolerance=1e-6):
        self.encoder = encoder
        self.mask = encoder.immutable_mask()
        self._columns = np.flatnonzero(self.mask)
        self.tolerance = float(tolerance)
        names = ", ".join(encoder.schema.immutable_names)
        self.name = f"immutable[{names}]"

    def satisfied(self, x, x_cf):
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        if not self.mask.any():
            return np.ones(len(x), dtype=bool)
        drift = np.abs(x_cf[:, self.mask] - x[:, self.mask])
        return (drift <= self.tolerance).all(axis=1)

    def penalty(self, x, x_cf):
        x = np.asarray(x)
        x_cf = as_tensor(x_cf)
        if not self.mask.any():
            return Tensor(0.0)
        columns = self._columns
        drift = x_cf[:, columns] - Tensor(host(np.take, x, columns, 1))
        return drift.abs().mean()
