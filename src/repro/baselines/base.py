"""Shared interface for the baseline counterfactual explainers.

Every method the paper compares against (Table IV) implements
:class:`BaseCFExplainer`: fit on the training split (if the method learns
anything), then ``generate(x, desired)`` returns encoded counterfactuals.
All baselines respect immutable attributes via projection, mirroring the
CARLA benchmark setup the paper used.

``BaseCFExplainer`` is a :class:`repro.engine.CFStrategy`: the method
itself only *proposes* raw candidates (:meth:`propose`); immutable
projection, validity filtering and metric scoring live once in the
engine runner.  :meth:`generate` remains as a thin adapter for direct
use — one proposal plus one batched projection.
"""

from __future__ import annotations

from abc import abstractmethod
from contextlib import contextmanager

import numpy as np

from ..constraints import ImmutableProjector
from ..engine.strategy import CandidateBatch, CFStrategy
from ..utils.validation import check_encoded_rows, check_training_labels, resolve_desired

__all__ = ["BaseCFExplainer", "frozen"]


@contextmanager
def frozen(*modules):
    """Hold the modules' parameters at ``requires_grad=False`` for a block.

    Each parameter's prior flag is restored on exit (also on error), so a
    search through a shared black box leaves it as retrainable as it was.
    """
    flags = [(parameter, parameter.requires_grad)
             for module in modules
             for _, parameter in module.named_parameters(include_frozen=True)]
    for parameter, _ in flags:
        parameter.requires_grad = False
    try:
        yield
    finally:
        for parameter, flag in flags:
            parameter.requires_grad = flag


class BaseCFExplainer(CFStrategy):
    """Base class: common plumbing for baseline CF methods.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder`.
    blackbox:
        Trained :class:`repro.models.BlackBoxClassifier` to explain.
    seed:
        Seed for the method's internal randomness.
    """

    #: Row label used in the Table IV reproduction.
    name = "baseline"

    def __init__(self, encoder, blackbox, seed=0):
        self.encoder = encoder
        self.blackbox = blackbox
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)
        self.projector = ImmutableProjector(encoder)
        self._fitted = False

    def _check_rows(self, x, name):
        """2-D + schema-width validation against the training encoder."""
        return check_encoded_rows(x, self.encoder, name)

    def describe(self):
        """Identity dict including the method's scalar hyperparameters.

        Two same-class strategies with different knobs (e.g. DiCE with
        ``max_attempts`` 10 vs 200) must fingerprint differently, or the
        serving cache would serve one's results as the other's.
        """
        info = super().describe()
        info["params"] = {
            key: value
            for key, value in sorted(vars(self).items())
            if not key.startswith("_") and isinstance(value, (bool, int, float, str))
        }
        config = getattr(self, "config", None)
        if config is not None:
            from dataclasses import asdict

            info["config"] = {
                key: (float(value) if isinstance(value, float) else value)
                for key, value in asdict(config).items()
            }
        return info

    # -- lifecycle ---------------------------------------------------------
    def fit(self, x_train, y_train=None):
        """Fit method-specific machinery (default: record the data).

        ``y_train`` is optional; when given it must hold one 0/1 label
        per training row.
        """
        x_train = self._check_rows(x_train, "x_train")
        if y_train is not None:
            y_train = check_training_labels(y_train, len(x_train))
        self._fit(x_train, y_train)
        self._fitted = True
        return self

    def _fit(self, x_train, y_train):
        """Hook for subclasses; default no-op."""

    def propose(self, x, desired=None):
        """Propose raw (pre-projection) counterfactuals for rows ``x``.

        ``desired`` defaults to the flipped black-box prediction.  The
        returned :class:`CandidateBatch` holds one candidate per row;
        projection and validity checks are the engine runner's job.
        """
        if not self._fitted:
            raise RuntimeError(f"{self.name} is not fitted; call fit() first")
        x = self._check_rows(x, "x")
        desired = resolve_desired(self.blackbox, x, desired)
        x_cf = np.asarray(self._generate(x, desired), dtype=np.float64)
        return CandidateBatch(x=x, desired=desired,
                              candidates=x_cf[:, None, :])

    def generate(self, x, desired=None):
        """Generate encoded counterfactuals for rows ``x``.

        Thin adapter over the engine decomposition: one :meth:`propose`
        call followed by one batched immutable projection — the
        projection runs once for the whole candidate batch, not per
        candidate row.
        """
        batch = self.propose(x, desired)
        return self.projector.project(batch.x, batch.candidates)[:, 0, :]

    @abstractmethod
    def _generate(self, x, desired):
        """Method-specific generation; returns an encoded ndarray."""

    def __repr__(self):
        return f"{type(self).__name__}(name={self.name!r})"
