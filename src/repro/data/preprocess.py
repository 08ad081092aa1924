"""Preprocessing: cleaning, min-max normalisation, one-hot encoding.

Implements Section IV-C of the paper exactly:

1. rows with missing values are deleted,
2. continuous features are normalised to [0, 1],
3. categorical features are one-hot encoded,
4. binary attributes become 0/1.

:class:`TabularEncoder` owns steps 2-4 and is fully invertible, which the
Table V reproduction needs (decoding a generated counterfactual back to
raw attribute values).
"""

from __future__ import annotations

import numpy as np

from .frame import TabularFrame
from .schema import FeatureType

__all__ = ["clean", "TabularEncoder"]


def clean(frame, labels):
    """Drop rows with missing values from ``frame`` and ``labels`` together.

    Returns ``(clean_frame, clean_labels)`` — the paper's first
    preprocessing step, producing the Table I "cleaned" instance counts.
    """
    labels = np.asarray(labels)
    if len(labels) != frame.n_rows:
        raise ValueError(
            f"labels ({len(labels)}) and frame ({frame.n_rows}) row counts differ")
    keep = np.flatnonzero(~frame.missing_mask())
    return frame.take(keep), labels[keep]


class TabularEncoder:
    """Invertible encoder from a :class:`TabularFrame` to a float matrix.

    Each feature occupies a contiguous block of output columns in schema
    order: one column per continuous feature (min-max scaled), one per
    binary feature, ``k`` one-hot columns per categorical feature with
    ``k`` categories.

    The encoder also publishes the structural metadata every other
    component consumes: per-feature column slices, the immutable-column
    mask, and per-block category counts.
    """

    def __init__(self, schema):
        self.schema = schema
        self.feature_slices = {}
        self._fitted = False
        self._ranges = {}

        offset = 0
        for spec in schema.features:
            width = spec.n_categories if spec.ftype is FeatureType.CATEGORICAL else 1
            self.feature_slices[spec.name] = slice(offset, offset + width)
            offset += width
        self.n_encoded = offset

    # -- fitting ------------------------------------------------------------
    def fit(self, frame):
        """Record min/max for continuous features from ``frame``.

        Categorical vocabularies come from the schema (they are part of
        the dataset definition), so only continuous ranges are data
        dependent.  Returns ``self``.
        """
        for spec in self.schema.continuous:
            column = frame[spec.name].astype(np.float64)
            low = float(np.nanmin(column))
            high = float(np.nanmax(column))
            if high == low:
                high = low + 1.0
            self._ranges[spec.name] = (low, high)
        self._fitted = True
        return self

    def _require_fitted(self):
        if not self._fitted:
            raise RuntimeError("encoder is not fitted; call fit() first")

    @property
    def ranges(self):
        """Fitted (low, high) per continuous feature."""
        self._require_fitted()
        return dict(self._ranges)

    # -- transform -----------------------------------------------------------
    def transform(self, frame):
        """Encode ``frame`` into a float matrix of shape (rows, n_encoded)."""
        self._require_fitted()
        out = np.zeros((frame.n_rows, self.n_encoded), dtype=np.float64)
        for spec in self.schema.features:
            block = self.feature_slices[spec.name]
            column = frame[spec.name]
            if spec.ftype is FeatureType.CONTINUOUS:
                low, high = self._ranges[spec.name]
                out[:, block.start] = (column.astype(np.float64) - low) / (high - low)
            elif spec.ftype is FeatureType.BINARY:
                out[:, block.start] = column.astype(np.float64)
            else:
                indices = self._category_indices(spec, column)
                out[np.arange(frame.n_rows), block.start + indices] = 1.0
        return out

    @staticmethod
    def _category_indices(spec, column):
        lookup = {label: index for index, label in enumerate(spec.categories)}
        try:
            return np.array([lookup[value] for value in column], dtype=int)
        except KeyError as error:
            raise ValueError(
                f"unknown category {error.args[0]!r} in feature {spec.name!r}") from None

    def fit_transform(self, frame):
        """Shorthand for ``fit(frame).transform(frame)``."""
        return self.fit(frame).transform(frame)

    # -- fitted-state persistence ---------------------------------------------
    def get_state(self):
        """JSON-serialisable fitted state (schema name + continuous ranges).

        Together with the schema (a code-level constant looked up by
        name), this is everything a fresh process needs to rebuild the
        encoder without touching the training data — the serving layer's
        artifact manifests persist exactly this dict.
        """
        self._require_fitted()
        return {
            "schema": self.schema.name,
            "n_encoded": int(self.n_encoded),
            "ranges": {name: [float(low), float(high)]
                       for name, (low, high) in self._ranges.items()},
        }

    @classmethod
    def from_state(cls, schema, state):
        """Rebuild a fitted encoder from :meth:`get_state` output."""
        if state.get("schema") != schema.name:
            raise ValueError(
                f"encoder state is for schema {state.get('schema')!r}, "
                f"not {schema.name!r}")
        encoder = cls(schema)
        if int(state["n_encoded"]) != encoder.n_encoded:
            raise ValueError(
                f"encoder state has n_encoded={state['n_encoded']} but the "
                f"current {schema.name!r} schema encodes {encoder.n_encoded} "
                f"columns; the schema changed since the state was saved")
        ranges = {name: (float(low), float(high))
                  for name, (low, high) in state["ranges"].items()}
        missing = {spec.name for spec in schema.continuous} - set(ranges)
        if missing:
            raise ValueError(
                f"encoder state is missing ranges for {sorted(missing)}")
        encoder._ranges = ranges
        encoder._fitted = True
        return encoder

    # -- inverse -------------------------------------------------------------
    def inverse_transform(self, matrix):
        """Decode an encoded matrix back into a :class:`TabularFrame`.

        Continuous columns are de-normalised and clipped to the schema
        bounds; binary columns are thresholded at 0.5; categorical blocks
        take the argmax — so the inverse is total on arbitrary real
        matrices (e.g. raw VAE decoder output), not just on exact
        encodings.
        """
        self._require_fitted()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_encoded:
            raise ValueError(
                f"expected shape (n, {self.n_encoded}), got {matrix.shape}")
        columns = {}
        for spec in self.schema.features:
            block = self.feature_slices[spec.name]
            values = matrix[:, block]
            if spec.ftype is FeatureType.CONTINUOUS:
                low, high = self._ranges[spec.name]
                raw = values[:, 0] * (high - low) + low
                columns[spec.name] = np.clip(raw, spec.bounds[0], spec.bounds[1])
            elif spec.ftype is FeatureType.BINARY:
                columns[spec.name] = (values[:, 0] >= 0.5).astype(np.float64)
            else:
                picked = np.argmax(values, axis=1)
                columns[spec.name] = np.array(spec.categories, dtype=object)[picked]
        return TabularFrame(columns)

    # -- structural metadata ---------------------------------------------------
    def immutable_mask(self):
        """Boolean mask over encoded columns that belong to immutable features."""
        mask = np.zeros(self.n_encoded, dtype=bool)
        for name in self.schema.immutable_names:
            mask[self.feature_slices[name]] = True
        return mask

    def column_of(self, feature_name):
        """Encoded column index of a continuous or binary feature."""
        spec = self.schema.feature(feature_name)
        if spec.ftype is FeatureType.CATEGORICAL:
            raise ValueError(
                f"{feature_name!r} is categorical; use feature_slices for its block")
        return self.feature_slices[feature_name].start

    def normalized_value(self, feature_name, raw_value):
        """Map a raw continuous value into its encoded [0, 1] position."""
        self._require_fitted()
        low, high = self._ranges[feature_name]
        return (float(raw_value) - low) / (high - low)

    def category_rank_weights(self, feature_name):
        """Per-column ordinal ranks for a categorical block.

        Dotting a one-hot (or soft) block with these weights yields the
        expected category rank — the differentiable "ordinal value" the
        binary causal constraint uses for attributes such as education.
        """
        spec = self.schema.feature(feature_name)
        if spec.ftype is not FeatureType.CATEGORICAL:
            raise ValueError(f"{feature_name!r} is not categorical")
        return np.arange(spec.n_categories, dtype=np.float64)
