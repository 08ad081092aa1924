"""Shared persistence contract for hosted overlay models.

Three engine-hostable layers persist themselves through the artifact
store's overlay machinery: density estimators (``repro.density``),
causal models (``repro.causal``) and black-box ensembles
(``repro.models.ensemble``).  Each grew the same three methods by
copy-paste — a flat ``get_state`` dict of arrays and scalars, a
``from_state`` rebuild, and a ``fingerprint`` hashing that state for
staleness checks.  This module is the single home of that contract:

* :class:`Persistable` — the structural protocol all three layers
  satisfy (the store's overlays save and rebuild through it),
* :func:`fingerprint_state` — the one fingerprint implementation the
  three layers now delegate to.  Arrays are hashed by content, scalars
  canonically JSON-encoded, and the digest truncated to 16 hex chars —
  byte-identical to the historical per-layer implementations, so every
  persisted sidecar fingerprint written before this module existed
  still validates.

The module is a leaf on purpose (stdlib + numpy only): the layers that
implement the protocol import it lazily, so no import cycle forms
between ``repro.serve`` and the model packages the store rebuilds.
"""

from __future__ import annotations

import hashlib
import json
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["Persistable", "fingerprint_state"]


@runtime_checkable
class Persistable(Protocol):
    """Structural contract of a store-persistable overlay model.

    Implementations expose a flat state dict (ndarray and plain-scalar
    values only — the store splits them into an ``.npz`` and a JSON
    sidecar), a classmethod rebuild from that dict, and a deterministic
    fingerprint over it.  The protocol is structural: density, causal
    and ensemble models satisfy it without inheriting from a shared
    base, and ``isinstance(model, Persistable)`` checks membership at
    runtime.
    """

    def get_state(self) -> dict:
        """Flat state dict: ndarray / plain-scalar values only."""
        ...

    @classmethod
    def from_state(cls, state, *args, **kwargs):
        """Rebuild a fitted model from :meth:`get_state` output."""
        ...

    def fingerprint(self) -> str:
        """Deterministic hash of the fitted state, for caches and the store."""
        ...


def fingerprint_state(state, excludes=()):
    """Deterministic 16-hex-char hash of a flat model-state dict.

    Arrays are hashed by content (SHA-256 over the contiguous bytes),
    every other value is carried verbatim into a canonically sorted
    JSON payload, and the payload's SHA-256 digest is truncated to 16
    characters.  ``excludes`` names state keys left out of the hash
    (derived or presentation-only state that cannot change the model's
    outputs).

    This is the exact algorithm ``DensityModel.fingerprint``,
    ``CausalModel.fingerprint`` and ``BlackBoxEnsemble.fingerprint``
    each hand-rolled before it was extracted here — two models agree on
    a fingerprint exactly when they would produce the same outputs, and
    fingerprints persisted by the historical implementations remain
    byte-identical under this one.
    """
    payload = {}
    for key, value in state.items():
        if key in excludes:
            continue
        if isinstance(value, np.ndarray):
            payload[key] = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()
        else:
            payload[key] = value
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
