"""Structural-causal-model sampling helpers for the synthetic benchmarks.

The original paper evaluates on three public tabular datasets (UCI Adult,
KDD Census-Income, LSAC Law School).  This environment has no network
access, so the generators in :mod:`repro.data.adult`, ``kdd_census`` and
``law_school`` sample from hand-built SCMs that match each dataset's
published schema, marginals and — crucially for this paper — the causal
relations the constraints reference (education cannot rise without age,
school tier tracks LSAT, ...).  This module holds the shared sampling
primitives.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "standardize",
    "sample_categorical",
    "conditional_categorical",
    "bernoulli_logit",
    "inject_missing",
]


def sigmoid(x):
    """Numerically stable logistic function."""
    x = np.clip(x, -500, 500)
    return 1.0 / (1.0 + np.exp(-x))


def standardize(values):
    """Zero-mean unit-variance version of ``values`` (constant-safe)."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    if std == 0:
        return np.zeros_like(values)
    return (values - values.mean()) / std


def sample_categorical(rng, labels, probabilities, size):
    """Sample ``size`` labels i.i.d. from one probability vector."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    probabilities = probabilities / probabilities.sum()
    indices = rng.choice(len(labels), size=size, p=probabilities)
    return np.array(labels, dtype=object)[indices]


def conditional_categorical(rng, labels, probability_rows):
    """Sample one label per row from per-row probability vectors.

    Parameters
    ----------
    labels:
        Sequence of category labels (length k).
    probability_rows:
        Array of shape (n, k); each row is normalised then sampled.
    """
    probability_rows = np.asarray(probability_rows, dtype=np.float64)
    probability_rows = probability_rows / probability_rows.sum(axis=1, keepdims=True)
    cumulative = probability_rows.cumsum(axis=1)
    draws = rng.random(len(probability_rows))[:, None]
    indices = (draws > cumulative).sum(axis=1)
    return np.array(labels, dtype=object)[indices]


def bernoulli_logit(rng, logits):
    """Draw 0/1 outcomes with probability ``sigmoid(logits)``."""
    return (rng.random(len(logits)) < sigmoid(np.asarray(logits))).astype(np.float64)


def inject_missing(frame, columns, row_fraction, rng):
    """Return a copy of ``frame`` with missing cells injected.

    ``row_fraction`` of the rows are corrupted; each corrupted row gets a
    missing value in one of the given ``columns`` (chosen uniformly).
    Mirrors the real datasets, where missingness concentrates in a few
    survey fields, and drives the Table I raw → cleaned instance counts.
    """
    n_rows = frame.n_rows
    n_corrupt = int(round(row_fraction * n_rows))
    corrupt_rows = rng.choice(n_rows, size=n_corrupt, replace=False)
    target_columns = rng.integers(0, len(columns), size=n_corrupt)

    new_columns = {name: frame[name].copy() for name in frame.column_names}
    for slot, column_name in enumerate(columns):
        rows = corrupt_rows[target_columns == slot]
        column = new_columns[column_name]
        if column.dtype == object:
            column[rows] = None
        else:
            column[rows] = np.nan

    from .frame import TabularFrame

    return TabularFrame(new_columns)
