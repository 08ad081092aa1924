"""Binary (paired) causal constraints (paper Eq. 2).

The canonical example couples education and age on the Adult dataset:

* if education increases, age must strictly increase, and
* if education stays the same, age must not decrease.

The cause may be an ordinal categorical attribute (education: the rank of
the one-hot block defines its ordinal value) or a continuous one (school
``tier`` on Law School).  The effect is continuous.

The differentiable penalty follows the paper's parametrised form
``(x2 - c1 - c2 * x1)``-style: with ``delta_cause`` and ``delta_effect``
the (encoded) changes, the penalty is ``relu(c2 * relu(delta_cause) +
c1 * 1[delta_cause > 0] - delta_effect)``, which is zero exactly when the
effect rises at least ``c2`` per unit of cause increase (plus margin
``c1``) and never falls while the cause is unchanged.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import FeatureType
from ..nn import Tensor, as_tensor, host
from .base import Constraint

__all__ = ["OrdinalImplicationConstraint"]


class OrdinalImplicationConstraint(Constraint):
    """"Cause up implies effect up" constraint (Eq. 2).

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder`.
    cause:
        Name of the causing attribute (categorical-ordinal or continuous),
        e.g. ``education`` (Adult/KDD) or ``tier`` (Law School).
    effect:
        Name of the continuous effect attribute, e.g. ``age`` or ``lsat``.
    slope:
        Penalty parameter ``c2``: minimum effect increase (encoded units)
        required per unit of cause increase.  "Selected from
        experimentation" in the paper; defaults are set per dataset in
        :mod:`repro.constraints.catalog`.
    margin:
        Penalty parameter ``c1``: extra strict-inequality margin applied
        when the cause increased.
    tolerance:
        Float slack for the boolean satisfaction checks.
    """

    def __init__(self, encoder, cause, effect, slope=0.02, margin=0.0,
                 tolerance=1e-6):
        self.encoder = encoder
        self.cause = cause
        self.effect = effect
        self.slope = float(slope)
        self.margin = float(margin)
        self.tolerance = float(tolerance)
        self.name = f"binary[{cause} up => {effect} up]"

        cause_spec = encoder.schema.feature(cause)
        self._cause_is_categorical = cause_spec.ftype is FeatureType.CATEGORICAL
        if self._cause_is_categorical:
            self._cause_block = encoder.feature_slices[cause]
            self._rank_weights = encoder.category_rank_weights(cause)
        else:
            self._cause_column = encoder.column_of(cause)
        self._effect_column = encoder.column_of(effect)

    # -- cause value extraction ----------------------------------------------
    def _cause_values_np(self, x):
        """Ordinal cause value per row of a plain ndarray."""
        x = np.asarray(x)
        if self._cause_is_categorical:
            return x[:, self._cause_block] @ self._rank_weights
        return x[:, self._cause_column]

    def _cause_values_tensor(self, x_cf):
        """Differentiable ordinal cause value per row of a Tensor."""
        if self._cause_is_categorical:
            block = x_cf[:, self._cause_block]
            return block @ Tensor(self._rank_weights)
        return x_cf[:, self._cause_column]

    # -- evaluation -------------------------------------------------------------
    def satisfied(self, x, x_cf):
        """Eq. 2 truth value per row.

        ``cause`` strictly up requires ``effect`` strictly up; ``cause``
        unchanged requires ``effect`` non-decreasing; ``cause`` down is
        outside the implication, hence vacuously satisfied.  Each case
        is a positive comparison, so a NaN change satisfies none of
        them and the row is infeasible.
        """
        x = np.asarray(x)
        x_cf = np.asarray(x_cf)
        delta_cause = self._cause_values_np(x_cf) - self._cause_values_np(x)
        delta_effect = x_cf[:, self._effect_column] - x[:, self._effect_column]

        tol = self.tolerance
        return ((delta_effect > tol)
                | ((delta_cause <= tol) & (delta_effect >= -tol))
                | (delta_cause < -tol))

    # -- learning ----------------------------------------------------------------
    def penalty(self, x, x_cf):
        x = np.asarray(x)
        x_cf = as_tensor(x_cf)
        cause_before = host(self._cause_values_np, x)
        cause_after = self._cause_values_tensor(x_cf)
        delta_cause = cause_after - Tensor(cause_before)
        delta_effect = x_cf[:, self._effect_column] - Tensor(x[:, self._effect_column])

        required = delta_cause.clip_min(0.0) * self.slope
        if self.margin:
            # strict-increase margin active only when the cause moved up;
            # use a smooth gate so the penalty stays differentiable.
            gate = (delta_cause * 50.0).sigmoid()
            required = required + gate * self.margin
        shortfall = (required - delta_effect).clip_min(0.0)
        return shortfall.mean()
