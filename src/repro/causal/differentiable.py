"""Differentiable causal-plausibility penalties for the six-part loss.

:class:`repro.causal.models.ScmCausalModel` repairs candidates after the
fact; this module turns the same structural knowledge into a training
signal.  :func:`causal_loss_surrogate` wraps a *fitted* causal model and
exposes ``penalty(x, x_cf) -> Tensor`` — a scalar the CF-VAE objective
can backpropagate:

* :class:`ScmLossSurrogate` replays Mahajan et al.'s
  abduction-action-prediction as autograd ops: the exogenous residuals
  are abducted from the factual rows (constants), and each additive
  equation contributes the squared gap between the candidate's effect
  and the re-predicted ``predict(causes_cf) + residual``, masked to rows
  that actually moved a cause (matching the repair semantics).  Floor
  and monotone equations contribute squared hinge penalties below their
  bounds.  Equation ``predict`` skeletons are probed once for
  Tensor-safety: affine skeletons run on the graph (gradients reach the
  cause columns), table-lookup/clip skeletons fall back to evaluating on
  detached data (gradients reach the effect column only).
* :class:`MinedLossSurrogate` applies the squared hinge of each mined
  monotone relation: when the candidate moves a cause up, the effect is
  penalised below ``effect_x + slope * delta``.

All terms are computed in encoded units, so the penalty scale is
comparable across equations and datasets.  Squared hinges keep the terms
C^1, which the finite-difference gradient checks rely on.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor, as_tensor, host
from .models import MinedCausalModel, ScmCausalModel

__all__ = ["ScmLossSurrogate", "MinedLossSurrogate", "causal_loss_surrogate"]


def _soft_rank(x_cf, block, weights):
    """Differentiable categorical rank: soft one-hot dotted with ranks."""
    return (x_cf[:, block] * weights).sum(axis=1)


def _rank_weights(model):
    """Rank weights of every categorical feature, built once per surrogate."""
    return {name: model.encoder.category_rank_weights(name)
            for name, kind in model._codec.kinds.items() if kind == "categorical"}


def _active_mask(delta, tolerance):
    """1.0 where the cause did not move down by more than ``tolerance``."""
    return (delta > -tolerance).astype(np.float64)


def _read_cf(codec, rank_weights, x_cf, name):
    """Differentiable raw-unit read of one feature from the candidate Tensor.

    The graph twin of ``_FeatureCodec.read`` with one relaxation: the
    categorical argmax becomes the soft rank (the same relaxation the
    mined model's ``_cause_values`` uses), so gradients can flow into
    one-hot blocks.
    """
    kind = codec.kinds[name]
    if kind == "categorical":
        return _soft_rank(x_cf, codec.columns[name], rank_weights[name])
    if kind == "continuous":
        low, high = codec.ranges[name]
        return x_cf[:, codec.columns[name]] * (high - low) + low
    return x_cf[:, codec.columns[name]]


class ScmLossSurrogate:
    """Differentiable SCM residual penalty over a fitted :class:`ScmCausalModel`."""

    kind = "scm"

    def __init__(self, model):
        if not isinstance(model, ScmCausalModel):
            raise TypeError(f"expected ScmCausalModel, got {type(model).__name__}")
        self.model = model
        self._codec = model._codec
        self._rank_weights = _rank_weights(model)
        self._graph_safe = {
            eq.label: self._probe(eq)
            for eq in model.equations
            if eq.mode == "additive"
        }

    # -- Tensor-safety probe -------------------------------------------
    def _probe(self, eq):
        """True when ``eq.predict`` runs on Tensors and matches its ndarray
        result — affine skeletons qualify, clip/lookup/comparison ones
        do not and use the detached fallback."""
        probe = {}
        for cause in eq.causes:
            kind = self._codec.kinds[cause]
            if kind == "continuous":
                low, high = self._codec.ranges[cause]
                probe[cause] = np.linspace(low, high, 3)
            elif kind == "categorical":
                n_cat = len(self._codec.categories[cause])
                probe[cause] = np.arange(3, dtype=np.float64) % n_cat
            else:
                probe[cause] = np.array([0.0, 1.0, 1.0])
        expected = np.asarray(eq.predict(probe), dtype=np.float64)
        try:
            got = eq.predict({c: Tensor(v) for c, v in probe.items()})
        except Exception:
            return False
        return (isinstance(got, Tensor) and got.shape == expected.shape
                and np.allclose(got.data, expected))

    # -- differentiable term -------------------------------------------
    def _constants(self, x, x_cf_data):
        """The batch's detached per-equation constants, in equation order.

        Abduction reads the factual rows and the candidate's data (both
        constants of the graph): a monotone or floor equation contributes
        its floor in encoded units; an additive one its ``moved`` mask,
        then the abducted residual (graph-safe skeleton) or the whole
        detached target (lookup/clip skeleton).
        """
        codec = self._codec
        model = self.model
        v_x = codec.read(x, model._features)
        v_cf = codec.read(x_cf_data, model._features)
        residuals = model._residuals(v_x)
        constants = []
        for eq in model.equations:
            effect = eq.effect
            if eq.mode == "monotone":
                # effect must not fall below its factual value
                constants.append(codec.encode_value(effect, v_x[effect]))
            elif eq.mode == "floor":
                # support bound from the candidate's causes; lookups are
                # table-based, so the bound is a detached constant
                low, high = codec.clip_range(effect)
                floor_raw = eq.predict({c: v_cf[c] for c in eq.causes})
                constants.append(codec.encode_value(effect, np.clip(floor_raw, low, high)))
            else:
                constants.append(model._causes_moved(eq, v_x, v_cf).astype(np.float64))
                if self._graph_safe[eq.label]:
                    constants.append(residuals[eq.label])
                else:
                    predicted = eq.predict({c: v_cf[c] for c in eq.causes})
                    constants.append(predicted + residuals[eq.label])
        return tuple(constants)

    def penalty(self, x, x_cf):
        """Mean squared causal-inconsistency of the candidate batch (Tensor).

        Traced and replayed inside a compiled training step: an array or
        a Python number it derives from the batch goes through
        :func:`~repro.nn.host` (trace contract in :mod:`repro.nn.tensor`).
        """
        x = np.asarray(x, dtype=np.float64)
        x_cf = as_tensor(x_cf)
        codec = self._codec
        constants = iter(host(self._constants, x, x_cf.data))
        terms = []
        for eq in self.model.equations:
            effect = eq.effect
            effect_cf = x_cf[:, codec.columns[effect]]  # encoded units
            if eq.mode in ("monotone", "floor"):
                gap = (next(constants) - effect_cf).clip_min(0.0)
            else:
                moved = next(constants)
                if self._graph_safe[eq.label]:
                    causes = {c: _read_cf(codec, self._rank_weights, x_cf, c)
                              for c in eq.causes}
                    target_raw = eq.predict(causes) + next(constants)
                else:
                    target_raw = as_tensor(next(constants))
                if codec.kinds[effect] == "continuous":
                    low, high = codec.clip_range(effect)
                    target_enc = (target_raw - low) * (1.0 / (high - low))
                else:
                    target_enc = target_raw
                gap = (effect_cf - target_enc) * moved
            terms.append((gap ** 2).mean())
        if not terms:
            return Tensor(0.0)
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total * (1.0 / len(terms))

    def fingerprint(self):
        """Fingerprint of the wrapped causal model's state."""
        return self.model.fingerprint()


class MinedLossSurrogate:
    """Squared-hinge penalties over a fitted :class:`MinedCausalModel`."""

    kind = "mined"

    def __init__(self, model):
        if not isinstance(model, MinedCausalModel):
            raise TypeError(f"expected MinedCausalModel, got {type(model).__name__}")
        model._require_fitted()
        self.model = model
        self._codec = model._codec
        self._rank_weights = _rank_weights(model)

    def penalty(self, x, x_cf):
        """Mean squared monotone-implication violation (Tensor).

        Traced and replayed inside a compiled training step: an array or
        a Python number it derives from the batch goes through
        :func:`~repro.nn.host` (trace contract in :mod:`repro.nn.tensor`).
        """
        x = np.asarray(x, dtype=np.float64)
        x_cf = as_tensor(x_cf)
        model = self.model
        codec = self._codec
        terms = []
        for cause, effect, slope in model.relations:
            cause_x = host(model._cause_values, x, cause)
            if codec.kinds[cause] == "categorical":
                cause_cf = _soft_rank(x_cf, codec.columns[cause], self._rank_weights[cause])
            else:
                cause_cf = x_cf[:, codec.columns[cause]]
            column = codec.columns[effect]
            effect_x = x[:, column]
            effect_cf = x_cf[:, column]
            delta = cause_cf - cause_x
            # the repair's dead zone: a cause moved *down* frees the
            # effect entirely (constant mask, from detached values)
            active = host(_active_mask, delta.data, model.tolerance)
            floor = effect_x + delta.clip_min(0.0) * slope + model.strict_margin
            # cap at the encoded ceiling like the repair does
            capped = -((-floor).clip_min(-1.0))
            gap = (capped - effect_cf).clip_min(0.0) * active
            terms.append((gap ** 2).mean())
        if not terms:
            return Tensor(0.0)
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        return total * (1.0 / len(terms))

    def fingerprint(self):
        """Fingerprint of the wrapped causal model's state."""
        return self.model.fingerprint()


def causal_loss_surrogate(model):
    """Wrap a fitted causal model in its differentiable loss surrogate."""
    if isinstance(model, ScmCausalModel):
        return ScmLossSurrogate(model)
    if isinstance(model, MinedCausalModel):
        return MinedLossSurrogate(model)
    raise TypeError(
        f"no loss surrogate for {type(model).__name__}; "
        f"expected ScmCausalModel or MinedCausalModel")
