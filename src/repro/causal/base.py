"""The ``CausalModel`` contract every implementation and consumer shares.

Causality is the first pillar of the paper's triplet, and — like density
before PR 4 — its knowledge used to be scattered: the hand-built SCMs
live inside the dataset generators, and ``ConstraintMiner`` discovers
causal relations nothing downstream could *act* on.  ``CausalModel`` is
the one batch-first interface that turns that knowledge into a service
(following Mahajan et al. 2019, "Preserving Causal Constraints in
Counterfactual Explanations"):

* ``fit(x, y=None)`` — bind the model to a training population (the
  mined model discovers its relations here; the SCM model validates the
  schema),
* ``abduct(x)`` — recover each row's exogenous residuals under the
  structural equations (step 1 of abduction-action-prediction),
* ``intervene(x, interventions)`` — apply ``do()``-style actions and
  push them through the equations with the abducted noise, returning a
  full encoded matrix,
* ``repair_batch(x, candidates)`` — the engine-facing hot path: make a
  whole ``(n, m, d)`` candidate sweep causally consistent in ONE
  vectorized pass, bit-identical to repairing one input row's
  candidates at a time,
* ``score(x, x_cf)`` — per-row causal *inconsistency cost* (L1 distance
  to the repaired candidate; ``0`` means already consistent), the basis
  of the Table IV ``causal_plausibility`` column,
* ``get_state`` / ``from_state`` / ``fingerprint()`` — the persistence
  contract matching :class:`repro.density.DensityModel`, so the artifact
  store can reject stale causal state exactly like stale weights.

``build_causal`` is the single factory the engine runner, the scenario
registry, the CLI and the serving layer call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..utils.validation import check_encoded_rows, check_encoded_sweep

__all__ = [
    "CAUSAL_NAMES",
    "CAUSAL_TOLERANCE",
    "CausalModel",
    "build_causal",
    "causal_from_state",
    "fit_causal",
]

#: Model names the factory accepts.
CAUSAL_NAMES = ("scm", "mined")

#: Encoded-L1 repair distance below which a candidate counts as causally
#: consistent (the ``causal_plausibility`` threshold).  Strictly above
#: float round-trip noise, strictly below any real repair step.
CAUSAL_TOLERANCE = 1e-6


class CausalModel(ABC):
    """Batch-first causal service over a fitted encoder's schema.

    Repair never *lowers* causal consistency: a candidate that already
    satisfies the model's equations passes through bit-identical, so
    strategies that respect causality pay nothing.  Implementations are
    elementwise-vectorized, which is what makes the batched
    :meth:`repair_batch` bit-identical to the per-row loop.
    """

    #: Registry name of the model (``scm`` / ``mined``).
    kind = "causal"

    #: State keys excluded from :meth:`fingerprint` (performance-only).
    fingerprint_excludes = ()

    #: The fitted encoder implementations bind at construction.
    encoder = None

    @abstractmethod
    def fit(self, x, y=None):
        """Bind the model to an encoded training matrix; returns ``self``."""

    @abstractmethod
    def abduct(self, x):
        """Exogenous residuals per structural relation of encoded rows ``x``.

        Returns a dict mapping a stable relation label to an ``(n,)``
        residual array (empty for models without additive equations).
        """

    @abstractmethod
    def intervene(self, x, interventions, noise=None):
        """Push ``do()``-style actions through the model for rows ``x``.

        ``interventions`` maps feature names to new raw values (scalar
        or ``(n,)``; categorical features accept labels or ranks).
        Intervened features are severed from their own equations; every
        downstream equation re-evaluates with the abducted ``noise``
        (recomputed from ``x`` when ``None``).  Returns a full encoded
        ``(n, d)`` matrix.
        """

    @abstractmethod
    def _repair_flat(self, x, candidates):
        """Repair a flat ``(N, d)`` candidate matrix against inputs ``x``.

        The elementwise core of :meth:`repair_batch`: keeping every
        operation elementwise per row is what makes one flat pass
        bit-identical to repairing row by row.
        """

    # -- batch repair --------------------------------------------------------
    def repair_batch(self, x, candidates, validate=True):
        """Causally repair a full ``(n, m, d)`` candidate sweep in one pass.

        The engine's hot path: the sweep is flattened once and repaired
        as a single matrix, so causal consistency for ``n * m``
        candidates costs one vectorized pass instead of ``n``.  Output is
        bit-identical to repairing one input row's candidates at a time.

        ``validate=False`` skips the schema/finiteness checks (including
        the full sweep ``isfinite`` scan) for callers repairing
        *internally generated* candidates they already validated — the
        engine runner's per-batch path.  Public callers should keep the
        default.
        """
        x, candidates = self._check_batch(x, candidates, validate)
        n, m, d = candidates.shape
        flat = self._repair_flat(np.repeat(x, m, axis=0), candidates.reshape(n * m, d))
        return flat.reshape(n, m, d)

    def repair(self, x, x_cf):
        """Repair one counterfactual per row: ``(n, d)`` in, ``(n, d)`` out."""
        x_cf = np.asarray(x_cf, dtype=np.float64)
        return self.repair_batch(x, x_cf[:, None, :])[:, 0, :]

    def score(self, x, x_cf):
        """Per-row causal inconsistency cost of counterfactuals ``x_cf``.

        The encoded L1 distance between each candidate and its repaired
        version — ``0`` exactly when the candidate already satisfies the
        model (repair leaves consistent candidates bit-identical).
        """
        x_cf = np.asarray(x_cf, dtype=np.float64)
        return np.abs(self.repair(x, x_cf) - x_cf).sum(axis=1)

    def _check_batch(self, x, candidates, validate=True):
        """Validate the (x, candidates) pair against the bound schema.

        With ``validate=False`` only the float64 coercion both repair
        paths rely on is applied (trusted internal callers).
        """
        if not validate:
            x = np.asarray(x, dtype=np.float64)
            return x, np.asarray(candidates, dtype=np.float64)
        x = check_encoded_rows(x, self.encoder, "x")
        candidates = check_encoded_sweep(candidates, self.encoder, len(x), "candidates")
        return x, candidates

    # -- persistence ---------------------------------------------------------
    @abstractmethod
    def get_state(self):
        """Flat state dict: ``kind`` plus ndarray / JSON-scalar values."""

    @classmethod
    @abstractmethod
    def from_state(cls, state, encoder):
        """Rebuild a fitted model from :meth:`get_state` output.

        ``encoder`` re-attaches the fitted encoder the model reads its
        feature layout and continuous ranges from (the store persists
        causal state, never a second copy of the encoder).
        """

    def _fingerprint_state(self):
        """State dict the fingerprint hashes; defaults to :meth:`get_state`.

        Implementations whose ``get_state`` enforces a *persistability*
        guard (the SCM model refuses custom equation lists) override
        this with an unguarded payload, so a model that cannot be saved
        can still be fingerprinted — and therefore hosted by the engine
        and the serving cache keys.
        """
        return self.get_state()

    def fingerprint(self):
        """Deterministic hash of the fitted state, for caches and the store.

        Delegates to the shared :func:`repro.serve.persist.fingerprint_state`
        contract (arrays hashed by content, scalars canonically
        JSON-encoded) — the exact contract of
        ``DensityModel.fingerprint``, so the store and service treat
        causal staleness identically to density staleness.
        """
        from ..serve.persist import fingerprint_state

        return fingerprint_state(self._fingerprint_state(), self.fingerprint_excludes)


def build_causal(name, encoder, **kwargs):
    """Construct an unfitted causal model by registry name.

    Parameters
    ----------
    name:
        One of :data:`CAUSAL_NAMES`.
    encoder:
        Fitted :class:`repro.data.TabularEncoder` the model binds to.
    kwargs:
        Forwarded to the model constructor (e.g. ``max_relations`` or
        ``min_correlation`` for the mined model).
    """
    from .models import MinedCausalModel, ScmCausalModel

    if name == "scm":
        return ScmCausalModel(encoder, **kwargs)
    if name == "mined":
        return MinedCausalModel(encoder, **kwargs)
    raise KeyError(f"unknown causal model {name!r}; options: {CAUSAL_NAMES}")


def fit_causal(name, encoder, x_train, y_train=None):
    """Build the named model and fit it on the training matrix.

    The shared recipe every causal consumer uses — scenarios, the serve
    demo and the benchmarks all bind the model to the full training
    population (the mined model needs the marginals; the SCM model only
    validates the schema).
    """
    return build_causal(name, encoder).fit(x_train, y_train)


def causal_from_state(state, encoder):
    """Rebuild a fitted model from a persisted state dict.

    The inverse of :meth:`CausalModel.get_state`, dispatched on the
    ``kind`` entry; ``encoder`` re-attaches the fitted encoder.
    """
    from .models import MinedCausalModel, ScmCausalModel

    kind = state.get("kind")
    if kind == "scm":
        return ScmCausalModel.from_state(state, encoder)
    if kind == "mined":
        return MinedCausalModel.from_state(state, encoder)
    raise KeyError(f"unknown causal state kind {kind!r}; options: {CAUSAL_NAMES}")
