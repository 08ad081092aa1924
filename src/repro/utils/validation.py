"""Argument validation helpers shared across the library.

Consistent error messages for the public API: shape checks for encoded
matrices, probability/ratio checks for hyperparameters, and label checks
for binary classification inputs.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["SchemaMismatchError", "check_2d", "check_2d_fast",
           "check_binary_labels", "check_count", "check_desired", "check_encoded_rows",
           "check_encoded_sweep", "check_loop_sizes", "check_probability", "check_positive",
           "check_schema_width", "check_training_labels", "resolve_desired"]


class SchemaMismatchError(ValueError):
    """Input columns do not match the schema a model was trained on.

    Raised by explainers and the serving layer *before* the mismatched
    matrix reaches a matmul, so callers get a description of the schema
    contract instead of a numpy broadcasting error.
    """


def check_schema_width(array, n_expected, name="x", context=None):
    """Validate that a 2-D ``array`` has ``n_expected`` encoded columns.

    ``context`` names the schema owner (e.g. ``"dataset 'adult'"``) so the
    error points the caller at the right encoder.  Returns the array.
    """
    n_got = array.shape[1]
    if n_got != int(n_expected):
        where = f" trained on {context}" if context else ""
        raise SchemaMismatchError(
            f"{name} has {n_got} columns but the schema{where} expects "
            f"{n_expected} encoded columns; encode rows with the same "
            f"TabularEncoder the model was trained with")
    return array


def _coerce_schema_array(array, encoder, name):
    """Coerce a request to float64, mapping dtype failures to schema errors.

    The shared first step of :func:`check_encoded_rows` and
    :func:`check_encoded_sweep`: a non-numeric payload that numpy cannot
    convert is a schema-contract violation, not an internal error.
    """
    try:
        return np.asarray(array, dtype=np.float64)
    except (TypeError, ValueError) as error:
        raise SchemaMismatchError(
            f"{name} does not match the encoded schema of dataset "
            f"{encoder.schema.name!r}: {error}") from error


def _require_finite(array, name):
    """Reject NaN/inf cells as a schema-contract violation."""
    if not np.isfinite(array).all():
        raise SchemaMismatchError(f"{name} contains NaN or infinite values")
    return array


def check_encoded_rows(array, encoder, name="x"):
    """Full request validation against a fitted encoder's schema.

    The shared entry check of every explain/serve surface: 2-D + finite
    and the column count of ``encoder`` (:func:`check_schema_width`,
    with the dataset named in the error).  Returns the validated float
    matrix.

    Any content failure — a non-numeric dtype that cannot be coerced, or
    NaN/inf cells — is reported as a :class:`SchemaMismatchError` (a
    ``ValueError`` subclass), so callers fuzzing the serving surfaces see
    one schema-contract error type instead of raw numpy messages.  A
    wrong number of axes stays a plain ``ValueError`` (that is an
    API-shape mistake, not schema drift) — the same contract as
    :func:`check_encoded_sweep`.
    """
    array = _coerce_schema_array(array, encoder, name)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    _require_finite(array, name)
    return check_schema_width(
        array, encoder.n_encoded, name,
        context=f"dataset {encoder.schema.name!r}")


def check_encoded_sweep(candidates, encoder, n_rows=None, name="candidates"):
    """Validate a ``(n_rows, m, d)`` candidate sweep against a schema.

    The 3-D counterpart of :func:`check_encoded_rows`, used by the
    causal layer's ``repair_batch`` (and anything else consuming full
    candidate tensors): float-coercible, finite, 3-D, ``d`` matching the
    encoder width and — when ``n_rows`` is given — the first axis
    matching the input batch.  Content failures raise
    :class:`SchemaMismatchError`; a wrong number of axes stays a plain
    ``ValueError`` (that is an API-shape mistake, not schema drift).
    """
    candidates = _coerce_schema_array(candidates, encoder, name)
    if candidates.ndim != 3:
        raise ValueError(
            f"{name} must be a (n_rows, n_candidates, d) tensor, "
            f"got shape {candidates.shape}")
    if candidates.shape[2] != encoder.n_encoded:
        raise SchemaMismatchError(
            f"{name} has {candidates.shape[2]} encoded columns but the "
            f"schema trained on dataset {encoder.schema.name!r} expects "
            f"{encoder.n_encoded} encoded columns; encode rows with the "
            f"same TabularEncoder the model was trained with")
    if n_rows is not None and candidates.shape[0] != int(n_rows):
        raise ValueError(
            f"{name} holds candidates for {candidates.shape[0]} rows but "
            f"x has {n_rows} rows")
    return _require_finite(candidates, name)


def check_2d(array, name="array"):
    """Return ``array`` as a float 2-D ndarray or raise ``ValueError``."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.isfinite(array).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return array


def check_2d_fast(array, name="array"):
    """Shape-only variant of :func:`check_2d` for per-call hot paths.

    Skips the full-matrix ``isfinite`` scan, which costs as much as a
    small forward pass and would be paid on *every* predict call.  Batch
    entry points (``fit``, ``explain``) still run the full check, so
    non-finite data is caught before it reaches the repeated-call paths.
    The result is float64 (a float64 input is returned as it is).
    """
    array = np.asarray(array)
    if array.dtype.type is not np.float64:
        array = array.astype(np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    if array.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return array


def check_binary_labels(labels, name="labels"):
    """Return ``labels`` as an int array of 0/1 or raise ``ValueError``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {labels.shape}")
    # a set test: request-sized vectors are checked on every served request
    if not set(labels.tolist()) <= {0, 1}:
        raise ValueError(
            f"{name} must contain only 0/1, got values {np.unique(labels)[:10]}")
    return labels.astype(int)


def check_training_labels(y_train, n_rows):
    """``y_train`` as 0/1 ints, one label per training row, or raise ``ValueError``."""
    if y_train is None:
        raise ValueError("y_train is required")
    y_train = check_binary_labels(y_train, "y_train")
    if len(y_train) != n_rows:
        raise ValueError(f"y_train has {len(y_train)} labels for {n_rows} training rows")
    return y_train


def check_desired(desired):
    """Return one request's desired class — None (flip), 0 or 1 — or raise ``ValueError``."""
    # 0 and 1 pass on a tuple lookup (this runs per served request)
    if desired is not None and desired not in (0, 1):
        check_binary_labels(np.reshape(desired, 1), "desired")
    return desired


def check_count(value, name, low):
    """Return ``value`` if it is an int >= ``low``; raise ``ValueError`` otherwise.

    Bools and floats are rejected rather than truncated: ``2.5`` members
    would silently train 2, and ``True`` would train 1.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
    return value


def check_loop_sizes(epochs, batch_size):
    """Raise ``ValueError`` unless ``epochs`` is an int >= 0 and ``batch_size`` an int >= 1.

    Training loops call this before touching any state: a negative batch
    size would train on nothing and return NaN losses, a zero one fails
    inside ``range``, and a negative epoch count silently trains nothing.
    """
    check_count(epochs, "epochs", 0)
    check_count(batch_size, "batch_size", 1)


def check_probability(value, name="probability"):
    """Validate a scalar in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


def check_positive(value, name="value"):
    """Validate a finite, strictly positive scalar (NaN and inf raise)."""
    value = float(value)
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def resolve_desired(blackbox, rows, desired):
    """Per-row desired classes, with ``None`` meaning "flip the prediction".

    ``desired`` may be ``None`` (every row flips), a scalar (broadcast to
    every row), a 1-D array of classes, or a per-row list mixing
    ``None`` and ints.  Flipping is binary (``1 - predict``); the
    black-box runs at most once, over all ``rows``.  Returns an int
    vector of length ``len(rows)``; a length mismatch, a matrix or an
    explicit class other than 0 or 1 raises ``ValueError``.
    """
    n_rows = len(rows)
    if desired is None:
        return 1 - blackbox.predict(rows)
    if isinstance(desired, (list, tuple)) and any(d is None for d in desired):
        if len(desired) != n_rows:
            raise ValueError(
                f"desired ({len(desired)}) and rows ({n_rows}) row counts differ")
        check_binary_labels([d for d in desired if d is not None], "desired")
        flipped = 1 - blackbox.predict(rows)
        return np.array([flipped[i] if d is None else int(d)
                         for i, d in enumerate(desired)], dtype=int)
    desired = np.asarray(desired)
    if desired.ndim == 0:
        return np.full(n_rows, check_binary_labels(desired.reshape(1), "desired")[0])
    if desired.ndim != 1:
        raise ValueError(
            f"desired must be a scalar or 1-D vector, got shape {desired.shape}")
    if len(desired) != n_rows:
        raise ValueError(
            f"desired ({len(desired)}) and rows ({n_rows}) row counts differ")
    return check_binary_labels(desired, "desired")
