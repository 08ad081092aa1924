"""The two batch-first causal models.

* :class:`ScmCausalModel` — the dataset's explicit structural equations
  (:mod:`repro.causal.equations`), run as one vectorized
  abduction-action-prediction pass: residuals are abducted from the
  input rows, and every endogenous feature whose cause a candidate moved
  is re-predicted with those residuals; support floors (minimum
  attainment age, monotone time) are enforced on top.
* :class:`MinedCausalModel` — built from
  :class:`repro.constraints.ConstraintMiner` relations (or an explicit
  relation list): when a candidate moves a cause *up*, the effect is
  monotone-repaired up to the implied floor
  ``effect + slope * delta_cause``; an unchanged cause pins the effect
  at non-decreasing.  Repaired candidates satisfy the corresponding
  :class:`~repro.constraints.binary.OrdinalImplicationConstraint` by
  construction (up to the encoded feature ceiling).

Both models are elementwise-vectorized so the batched ``repair_batch``
is bit-identical to repairing one input row's candidates at a time.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import FeatureType
from ..utils.validation import check_encoded_rows
from .base import CausalModel
from .equations import scm_equations

__all__ = ["MinedCausalModel", "ScmCausalModel"]


class _FeatureCodec:
    """Read per-feature scalar values from encoded matrices.

    Values are *raw units*: de-normalised floats for continuous
    features, 0/1 for binary, hard (argmax) integer ranks for
    categorical blocks — the value space the structural equations are
    written in.  Every operation is elementwise per row, which keeps
    batched and per-row consumers bit-identical.  The per-feature
    constants (column, ``low``, ``high - low``, clip bounds, the
    "moved" tolerance) are resolved once here, not per call.
    """

    def __init__(self, encoder):
        self.encoder = encoder
        self.kinds = {}
        self.columns = {}
        self.ranges = {}
        self.categories = {}
        self._spans = {}
        ranges = encoder.ranges
        for spec in encoder.schema.features:
            block = encoder.feature_slices[spec.name]
            if spec.ftype is FeatureType.CATEGORICAL:
                self.kinds[spec.name] = "categorical"
                self.columns[spec.name] = block
                self.categories[spec.name] = spec.categories
            elif spec.ftype is FeatureType.CONTINUOUS:
                self.kinds[spec.name] = "continuous"
                self.columns[spec.name] = block.start
                self.ranges[spec.name] = ranges[spec.name]
                low, high = ranges[spec.name]
                self._spans[spec.name] = (low, high - low)
            else:
                self.kinds[spec.name] = "binary"
                self.columns[spec.name] = block.start
        #: name -> (kind, column, low, high - low); the last two only
        #: for continuous features
        self._layout = {
            name: (kind, self.columns[name]) + self._spans.get(name, (None, None))
            for name, kind in self.kinds.items()
        }
        self._clip_ranges = {name: self.ranges.get(name, (0.0, 1.0)) for name in self.kinds}
        self._tolerances = {name: 1e-6 * span for name, (_, span) in self._spans.items()}

    def read(self, x, names):
        """Raw value array per requested feature name."""
        values = {}
        for name in names:
            kind, column, low, span = self._layout[name]
            if kind == "categorical":
                values[name] = x[:, column].argmax(axis=1).astype(np.float64)
            elif kind == "continuous":
                values[name] = x[:, column] * span + low
            else:
                values[name] = x[:, column]
        return values

    def encode_value(self, name, raw):
        """Raw values of a continuous/binary feature back to encoded units."""
        if name in self._spans:
            low, span = self._spans[name]
            return (raw - low) / span
        return raw

    def clip_range(self, name):
        """(low, high) raw clip bounds for a repaired feature."""
        return self._clip_ranges[name]

    def moved_tolerance(self, name):
        """Raw-unit threshold above which a feature counts as "moved".

        1e-6 encoded units for continuous/binary features; categorical
        ranks are integers, so any difference counts.
        """
        return self._tolerances.get(name, 1e-6)


class ScmCausalModel(CausalModel):
    """Abduction-action-prediction over a dataset's explicit SCM.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder`; its schema name picks
        the equation list (overridable via ``equations``).
    equations:
        Optional explicit tuple of
        :class:`repro.causal.equations.StructuralEquation`.
    """

    kind = "scm"

    def __init__(self, encoder, equations=None):
        self.encoder = encoder
        # provenance, not label comparison: a custom list could reuse the
        # default labels with different coefficients, which no state dict
        # can distinguish — only registry-built models may persist
        self._from_registry = equations is None
        if equations is None:
            equations = scm_equations(encoder.schema.name)
        self.equations = tuple(equations)
        self._codec = _FeatureCodec(encoder)
        self._features = self._referenced_features()
        self._effects = tuple(dict.fromkeys(eq.effect for eq in self.equations))
        immutable = set(encoder.schema.immutable_names)
        for eq in self.equations:
            kind = self._codec.kinds.get(eq.effect)
            if kind is None:
                raise KeyError(f"equation effect {eq.effect!r} is not in the schema")
            if kind == "categorical":
                raise ValueError(
                    f"equation effect {eq.effect!r} is categorical; repair "
                    f"writes continuous/binary effects only"
                )
            if eq.effect in immutable:
                raise ValueError(
                    f"equation effect {eq.effect!r} is immutable; an SCM "
                    f"must never repair a protected attribute"
                )
            for cause in eq.causes:
                if cause not in self._codec.kinds:
                    raise KeyError(f"equation cause {cause!r} is not in the schema")

    def _referenced_features(self):
        names = []
        for eq in self.equations:
            names.extend(eq.causes)
            names.append(eq.effect)
        return tuple(dict.fromkeys(names))

    # -- protocol ------------------------------------------------------------
    def fit(self, x, y=None):
        """Validate ``x`` against the schema; the equations are static."""
        check_encoded_rows(x, self.encoder, "x")
        return self

    def _residuals(self, values):
        """Per-equation exogenous residual (raw units) of observed values."""
        residuals = {}
        for eq in self.equations:
            if eq.mode == "monotone":
                residuals[eq.label] = np.zeros_like(values[eq.effect])
            else:
                predicted = eq.predict({c: values[c] for c in eq.causes})
                residuals[eq.label] = values[eq.effect] - predicted
        return residuals

    def abduct(self, x):
        """Exogenous residual per equation: observed minus predicted effect.

        Additive equations return the noise term the generator sampled;
        floor equations return the individual's slack above the support
        bound; monotone equations carry no noise (zeros).
        """
        x = check_encoded_rows(x, self.encoder, "x")
        return self._residuals(self._codec.read(x, self._features))

    def _causes_moved(self, eq, v_x, v_cf):
        moved = np.zeros(len(v_cf[eq.effect]), dtype=bool)
        for cause in eq.causes:
            tolerance = self._codec.moved_tolerance(cause)
            moved |= np.abs(v_cf[cause] - v_x[cause]) > tolerance
        return moved

    def _repair_flat(self, x, candidates):
        codec = self._codec
        out = candidates.copy()
        v_x = codec.read(x, self._features)
        v_cf = codec.read(out, self._features)
        original = {name: v_cf[name] for name in self._effects}
        for eq in self.equations:
            effect = eq.effect
            current = v_cf[effect]
            if eq.mode == "monotone":
                new = np.maximum(current, v_x[effect])
            elif eq.mode == "floor":
                new = np.maximum(current, eq.predict({c: v_cf[c] for c in eq.causes}))
            else:
                predicted = eq.predict({c: v_cf[c] for c in eq.causes})
                # the abducted residual (what _residuals computes for it)
                residual = v_x[effect] - eq.predict({c: v_x[c] for c in eq.causes})
                moved = self._causes_moved(eq, v_x, v_cf)
                new = np.where(moved, predicted + residual, current)
            # clip only entries the equation actually changed, so
            # untouched candidates keep their exact bits (and score 0);
            # ndarray.clip is what np.clip dispatches to, minus the
            # wrapper (np.minimum/np.maximum would turn a -0.0 into 0.0)
            low, high = codec.clip_range(effect)
            v_cf[effect] = np.where(new != current, new.clip(low, high), current)
        for effect in self._effects:
            changed = v_cf[effect] != original[effect]
            if changed.any():
                column = codec.columns[effect]
                encoded = codec.encode_value(effect, v_cf[effect])
                out[:, column] = np.where(changed, encoded, out[:, column])
        return out

    # -- persistence ---------------------------------------------------------
    def _fingerprint_state(self):
        """Unguarded state payload: custom-equation models fingerprint fine
        even though they refuse to persist.  The labels and the
        registry-provenance flag keep custom lists distinct from the
        defaults; two *different* custom lists sharing every label are
        indistinguishable here — give bespoke equations bespoke effects
        or causes."""
        names = sorted(self._codec.ranges)
        return {
            "kind": self.kind,
            "schema": self.encoder.schema.name,
            "equations": [eq.label for eq in self.equations],
            "registry_equations": self._from_registry,
            "range_features": names,
            "range_low": np.array([self._codec.ranges[n][0] for n in names]),
            "range_high": np.array([self._codec.ranges[n][1] for n in names]),
        }

    def get_state(self):
        # only the dataset's own equation list has a rebuild recipe
        # (from_state reconstructs it from the schema name); a custom
        # equations= list — even one reusing the default labels — would
        # silently load as the defaults, so refuse to persist it: the
        # same contract as the artifact store's refusal of custom
        # constraint sets.
        if not self._from_registry:
            labels = [eq.label for eq in self.equations]
            raise ValueError(
                f"cannot persist a custom equation list {labels}: from_state "
                f"rebuilds the {self.encoder.schema.name!r} registry defaults; "
                f"persist only dataset-default SCM models"
            )
        return self._fingerprint_state()

    @classmethod
    def from_state(cls, state, encoder):
        if state.get("schema") != encoder.schema.name:
            raise ValueError(
                f"causal state is for schema {state.get('schema')!r}, "
                f"not {encoder.schema.name!r}"
            )
        return cls(encoder)


class MinedCausalModel(CausalModel):
    """Monotone repair over mined "cause up implies effect up" relations.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder`.
    relations:
        Optional explicit relations — ``(cause, effect, slope)`` triples
        (slope in encoded effect units per cause unit) or
        :class:`~repro.constraints.discovery.DiscoveredRelation` objects.
        When omitted, :meth:`fit` mines them from the training matrix.
    max_relations, min_correlation, min_floor_monotonicity:
        Mining knobs forwarded to :class:`ConstraintMiner`.
    strict_margin:
        Extra encoded-units increase applied when the cause moved up, so
        the repaired effect satisfies the strict-inequality clause of
        ``OrdinalImplicationConstraint`` (kept above its ``tolerance``).
    tolerance:
        Cause-change dead zone, matching the constraint's.
    """

    kind = "mined"

    def __init__(
        self,
        encoder,
        relations=None,
        max_relations=8,
        min_correlation=0.15,
        min_floor_monotonicity=0.7,
        strict_margin=2e-6,
        tolerance=1e-6,
    ):
        self.encoder = encoder
        self.max_relations = int(max_relations)
        self.min_correlation = float(min_correlation)
        self.min_floor_monotonicity = float(min_floor_monotonicity)
        self.strict_margin = float(strict_margin)
        self.tolerance = float(tolerance)
        self._codec = _FeatureCodec(encoder)
        self.relations = None
        if relations is not None:
            self.relations = tuple(self._normalize(r) for r in relations)

    def _normalize(self, relation):
        if hasattr(relation, "cause"):
            slope = max(float(relation.suggested_slope), 1e-3)
            triple = (relation.cause, relation.effect, slope)
        else:
            cause, effect, slope = relation
            triple = (str(cause), str(effect), float(slope))
        cause, effect, _ = triple
        if cause not in self._codec.kinds:
            raise KeyError(f"relation cause {cause!r} is not in the schema")
        if self._codec.kinds.get(effect) != "continuous":
            raise ValueError(f"relation effect {effect!r} must be a continuous feature")
        if effect in self.encoder.schema.immutable_names:
            raise ValueError(
                f"relation effect {effect!r} is immutable; refusing to "
                f"repair a protected attribute"
            )
        return triple

    def _require_fitted(self):
        if self.relations is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first "
                f"or construct with relations="
            )

    # -- protocol ------------------------------------------------------------
    def fit(self, x, y=None):
        """Mine relations from the (decoded) training matrix.

        No-op when relations were supplied at construction.  Mining runs
        :class:`ConstraintMiner` on the inverse-transformed frame —
        exactly the discovery path of ``repro.cli discover`` — and keeps
        the ``max_relations`` strongest.  An empty mining result is
        legal and yields the identity repair.
        """
        x = check_encoded_rows(x, self.encoder, "x")
        if self.relations is not None:
            return self
        from ..constraints import ConstraintMiner

        frame = self.encoder.inverse_transform(x)
        miner = ConstraintMiner(
            self.encoder,
            min_correlation=self.min_correlation,
            min_floor_monotonicity=self.min_floor_monotonicity,
        )
        mined = miner.mine(frame)
        # correlational mining can return both directions of one pair
        # (zgpa <-> zfygpa); keep only the stronger direction so the
        # repair pass never chases its own tail
        kept, seen = [], set()
        for relation in mined:
            if (relation.effect, relation.cause) in seen:
                continue
            seen.add((relation.cause, relation.effect))
            kept.append(relation)
        self.relations = tuple(self._normalize(r) for r in kept[: self.max_relations])
        return self

    def _cause_values(self, x, cause):
        """Encoded-unit cause value: soft ordinal rank or raw column.

        Matches ``OrdinalImplicationConstraint`` exactly — soft one-hot
        blocks dot the rank weights (computed as an elementwise
        multiply-and-sum so batched and per-row paths agree bitwise).
        """
        if self._codec.kinds[cause] == "categorical":
            block = self._codec.columns[cause]
            weights = self.encoder.category_rank_weights(cause)
            return (x[:, block] * weights).sum(axis=1)
        return x[:, self._codec.columns[cause]]

    def abduct(self, x):
        """Per-relation effect slack of encoded rows (observational units).

        The mined model carries no generative noise; its "residual" per
        relation is the observed effect value itself, which is what the
        monotone repair anchors its floors to.
        """
        x = check_encoded_rows(x, self.encoder, "x")
        self._require_fitted()
        return {
            f"{cause}=>{effect}": x[:, self._codec.columns[effect]].copy()
            for cause, effect, _ in self.relations
        }

    def _repair_flat(self, x, candidates):
        self._require_fitted()
        out = candidates.copy()
        for cause, effect, slope in self.relations:
            cause_x = self._cause_values(x, cause)
            cause_cf = self._cause_values(out, cause)
            column = self._codec.columns[effect]
            effect_x = x[:, column]
            delta = cause_cf - cause_x
            cause_up = delta > self.tolerance
            cause_same = np.abs(delta) <= self.tolerance
            lifted = effect_x + slope * np.maximum(delta, 0.0) + self.strict_margin
            floor = np.where(cause_up, lifted, np.where(cause_same, effect_x, -np.inf))
            # the lift never leaves the encoded [0, 1] box every other
            # candidate source maintains: at the feature ceiling the
            # repair is best-effort (the implication cannot be satisfied
            # within the domain there)
            out[:, column] = np.maximum(out[:, column], np.minimum(floor, 1.0))
        return out

    # -- persistence ---------------------------------------------------------
    def get_state(self):
        self._require_fitted()
        return {
            "kind": self.kind,
            "schema": self.encoder.schema.name,
            "causes": [cause for cause, _, _ in self.relations],
            "effects": [effect for _, effect, _ in self.relations],
            "slopes": np.array([slope for _, _, slope in self.relations]),
            "strict_margin": self.strict_margin,
            "tolerance": self.tolerance,
        }

    @classmethod
    def from_state(cls, state, encoder):
        if state.get("schema") != encoder.schema.name:
            raise ValueError(
                f"causal state is for schema {state.get('schema')!r}, "
                f"not {encoder.schema.name!r}"
            )
        slopes = np.asarray(state["slopes"], dtype=np.float64)
        relations = list(zip(state["causes"], state["effects"], slopes))
        return cls(
            encoder,
            relations=relations,
            strict_margin=state["strict_margin"],
            tolerance=state["tolerance"],
        )
