"""The three batch-first density estimators.

* :class:`KnnDensity` — mean distance to the k nearest reference
  examples, the exact math ``DensityCFSelector`` always used (the
  selector now delegates here; parity tests pin the scores
  bit-identical).
* :class:`GaussianKdeDensity` — vectorized Gaussian kernel density with
  per-feature Scott bandwidths; the score is the negative log-density.
* :class:`LatentDensity` — k-NN density measured in the CF-VAE latent
  space (Mahajan et al.'s manifold argument): rows are encoded through
  ``ConditionalVAE.encode_array`` and scored by an inner
  :class:`KnnDensity` over the encoded reference.

The neighbour-based estimators carry a ``backend`` switch: ``"exact"``
(the default — a ``cKDTree``, bit-identical to the historical path) or
``"ann"`` (the batched IVF index of :mod:`repro.density.ann`, for
100k–1M-row reference populations, recall-tested rather than
bit-tested).  Backend choice is part of the persisted state and the
fingerprint — two estimators only share caches when they would produce
the same scores.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ..utils.validation import check_2d
from .ann import AnnIndex
from .base import DENSITY_BACKENDS, DensityModel
from .base import _tile_chunk_rows as _kde_chunk_cap

__all__ = ["GaussianKdeDensity", "KnnDensity", "LatentDensity"]

#: k-NN state keys that only exist when the ANN backend is active; kept
#: out of exact-backend state so exact fingerprints (and old persisted
#: overlays) are byte-for-byte what they were before the backend seam.
_ANN_STATE_KEYS = ("backend", "ann_cells", "ann_probes", "ann_seed")


def _check_backend(backend):
    if backend not in DENSITY_BACKENDS:
        raise ValueError(
            f"unknown density backend {backend!r}; options: {DENSITY_BACKENDS}")
    return backend


class KnnDensity(DensityModel):
    """Mean k-nearest-neighbour distance to the reference population.

    Lower scores mean the candidate sits among more (closer) reference
    examples — the ``meanknn`` term of the Figure 3 selection score.
    ``k`` is clamped to the reference size at query time, so a small
    feasible population degrades gracefully instead of failing.

    ``backend="ann"`` swaps the ``cKDTree`` for the batched
    :class:`repro.density.ann.AnnIndex`; scores then satisfy a measured
    recall contract instead of bit-parity.  The non-active index is
    built lazily, so an ANN estimator can still answer
    ``query(..., backend="exact")`` for recall measurement without
    paying the tree build unless asked.
    """

    kind = "knn"

    def __init__(self, k_neighbors=10, backend="exact", ann_cells=None,
                 ann_probes=None, ann_seed=0, tile_budget=None):
        self.k_neighbors = int(k_neighbors)
        if self.k_neighbors < 1:
            raise ValueError(f"k_neighbors must be >= 1, got {k_neighbors}")
        self.backend = _check_backend(backend)
        self.ann_cells = None if ann_cells is None else int(ann_cells)
        self.ann_probes = None if ann_probes is None else int(ann_probes)
        self.ann_seed = int(ann_seed)
        self.tile_budget = tile_budget
        self.reference_ = None
        self._tree = None
        self._ann = None

    def fit(self, reference):
        reference = check_2d(reference, "reference")
        self.reference_ = reference
        self._tree = None
        self._ann = None
        # build only the active index; the other stays lazy
        if self.backend == "ann":
            self._ann_index()
        else:
            self._exact_tree()
        return self

    @property
    def n_reference(self):
        return 0 if self.reference_ is None else len(self.reference_)

    @property
    def tree_(self):
        """The exact ``cKDTree`` (built lazily; ``None`` when unfitted)."""
        if self.reference_ is None:
            return None
        return self._exact_tree()

    def _require_fitted(self):
        if self.reference_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")

    def _exact_tree(self):
        if self._tree is None:
            self._tree = cKDTree(self.reference_)
        return self._tree

    def _ann_index(self):
        if self._ann is None:
            self._ann = AnnIndex(
                n_cells=self.ann_cells, n_probes=self.ann_probes, seed=self.ann_seed
            ).fit(self.reference_)
        return self._ann

    def query(self, points, k, backend=None):
        """Raw ``(distances, indices)`` k-NN lookup against the reference.

        The shared index access FACE's graph construction and the
        manifold diagnostics use; ``k`` is passed through untouched so
        self-neighbour conventions stay with the caller.  ``backend``
        overrides the estimator's own backend for this one call (the
        recall-measurement path queries both).
        """
        self._require_fitted()
        backend = self.backend if backend is None else _check_backend(backend)
        if backend == "ann":
            return self._ann_index().query(points, k)
        return self._exact_tree().query(points, k=k)

    def score(self, candidates):
        self._require_fitted()
        candidates = check_2d(candidates, "candidates")
        k = min(self.k_neighbors, len(self.reference_))
        distances, _ = self.query(candidates, k)
        if k == 1:
            return distances
        # distances.mean(axis=1) minus its Python wrapper: the same sum over k
        return np.add.reduce(distances, axis=1) / k

    def with_backend(self, backend, ann_cells=None, ann_probes=None, ann_seed=None):
        """Same estimator on another backend (re-indexing, never re-scoring)."""
        backend = _check_backend(backend)
        clone = KnnDensity(
            k_neighbors=self.k_neighbors,
            backend=backend,
            ann_cells=self.ann_cells if ann_cells is None else ann_cells,
            ann_probes=self.ann_probes if ann_probes is None else ann_probes,
            ann_seed=self.ann_seed if ann_seed is None else ann_seed,
            tile_budget=self.tile_budget,
        )
        if self.reference_ is not None:
            clone.fit(self.reference_)
        return clone

    def get_state(self):
        self._require_fitted()
        state = {
            "kind": self.kind,
            "k_neighbors": int(self.k_neighbors),
            "reference": self.reference_,
        }
        if self.backend != "exact":
            state["backend"] = self.backend
            state["ann_cells"] = self.ann_cells
            state["ann_probes"] = self.ann_probes
            state["ann_seed"] = int(self.ann_seed)
        return state

    @classmethod
    def from_state(cls, state):
        model = cls(
            k_neighbors=state["k_neighbors"],
            backend=state.get("backend", "exact"),
            ann_cells=state.get("ann_cells"),
            ann_probes=state.get("ann_probes"),
            ann_seed=state.get("ann_seed", 0),
        )
        return model.fit(np.asarray(state["reference"], dtype=np.float64))


class GaussianKdeDensity(DensityModel):
    """Vectorized Gaussian KDE; score is the negative log-density.

    Bandwidths follow Scott's rule per feature
    (``sigma_j * n ** (-1 / (d + 4))``) unless given explicitly;
    constant features fall back to unit scale so the whitening never
    divides by zero.  Scoring is chunked over candidates to bound the
    ``(chunk, n_reference)`` distance matrix — ``chunk_size`` caps the
    rows per pass and the tile budget caps the matrix elements, so a
    100k-row reference never provokes a multi-GB intermediate.
    """

    kind = "kde"
    fingerprint_excludes = ("chunk_size",)

    def __init__(self, bandwidth=None, chunk_size=4096, tile_budget=None):
        # the constructor argument is kept apart from the fitted value so
        # a refit re-derives Scott bandwidths from the NEW reference
        # instead of silently reusing the previous population's scales
        self._given_bandwidth = None if bandwidth is None else np.asarray(bandwidth, np.float64)
        self.bandwidth = None
        self.chunk_size = int(chunk_size)
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.tile_budget = tile_budget
        self.reference_ = None
        self._whitened = None
        self._log_norm = None

    def fit(self, reference):
        reference = check_2d(reference, "reference")
        n, d = reference.shape
        if self._given_bandwidth is None:
            sigma = reference.std(axis=0)
            sigma = np.where(sigma > 1e-12, sigma, 1.0)
            self.bandwidth = sigma * n ** (-1.0 / (d + 4))
        else:
            self.bandwidth = np.broadcast_to(self._given_bandwidth, (d,)).astype(np.float64)
            if np.any(self.bandwidth <= 0):
                raise ValueError("bandwidth entries must be positive")
        self.reference_ = reference
        self._whitened = reference / self.bandwidth
        # log of the Gaussian-product normaliser: n * h_1 ... h_d * (2 pi)^(d/2)
        self._log_norm = np.log(n) + np.log(self.bandwidth).sum() + 0.5 * d * np.log(2.0 * np.pi)
        return self

    @property
    def n_reference(self):
        return 0 if self.reference_ is None else len(self.reference_)

    def _require_fitted(self):
        if self.reference_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted; call fit() first")

    def log_density(self, candidates):
        """Log KDE density per candidate row (higher = denser)."""
        self._require_fitted()
        candidates = check_2d(candidates, "candidates")
        whitened = candidates / self.bandwidth
        ref = self._whitened
        ref_norms = (ref**2).sum(axis=1)
        # per-row math is chunk-independent, so tightening the chunk for
        # a big reference changes peak memory and nothing else
        chunk_size = min(
            self.chunk_size, _kde_chunk_cap(len(ref), self.tile_budget))
        out = np.empty(len(whitened))
        for start in range(0, len(whitened), chunk_size):
            chunk = whitened[start : start + chunk_size]
            sq = (chunk**2).sum(axis=1)[:, None] + ref_norms[None, :] - 2.0 * (chunk @ ref.T)
            exponents = -0.5 * np.maximum(sq, 0.0)
            peak = exponents.max(axis=1)
            out[start : start + chunk_size] = peak + np.log(
                np.exp(exponents - peak[:, None]).sum(axis=1)
            )
        return out - self._log_norm

    def score(self, candidates):
        return -self.log_density(candidates)

    def get_state(self):
        self._require_fitted()
        return {
            "kind": self.kind,
            "chunk_size": int(self.chunk_size),
            "bandwidth": self.bandwidth,
            "reference": self.reference_,
        }

    @classmethod
    def from_state(cls, state):
        model = cls(
            bandwidth=np.asarray(state["bandwidth"], dtype=np.float64),
            chunk_size=state["chunk_size"],
        )
        return model.fit(np.asarray(state["reference"], dtype=np.float64))


class LatentDensity(DensityModel):
    """k-NN density in the CF-VAE latent space.

    Rows are mapped to posterior means with the trained encoder
    (``encode_array``, the graph-free fast path) conditioned on
    ``desired_class``, then scored by an inner :class:`KnnDensity` over
    the encoded reference.  Persisted state stores the *latent*
    reference, never VAE weights — :meth:`from_state` re-attaches the
    VAE the artifact store already holds.  The ``backend`` switch is
    forwarded to the inner k-NN, so a latent estimator over a huge
    encoded population can run on the ANN index too.
    """

    kind = "latent"

    def __init__(self, vae=None, desired_class=1, k_neighbors=10, backend="exact",
                 ann_cells=None, ann_probes=None, ann_seed=0):
        self.vae = vae
        self.desired_class = int(desired_class)
        self.inner = KnnDensity(
            k_neighbors=k_neighbors,
            backend=backend,
            ann_cells=ann_cells,
            ann_probes=ann_probes,
            ann_seed=ann_seed,
        )

    @property
    def k_neighbors(self):
        """Neighbourhood size of the inner latent-space k-NN."""
        return self.inner.k_neighbors

    @property
    def backend(self):
        """Backend of the inner latent-space k-NN."""
        return self.inner.backend

    def _encode(self, rows):
        if self.vae is None:
            raise RuntimeError(
                "LatentDensity has no VAE attached; construct with vae= or "
                "rebuild via density_from_state(state, vae=...)"
            )
        rows = check_2d(rows, "rows")
        labels = np.full(len(rows), float(self.desired_class))
        mu, _ = self.vae.encode_array(rows, labels)
        return mu

    def fit(self, reference):
        self.inner.fit(self._encode(reference))
        return self

    @property
    def n_reference(self):
        return self.inner.n_reference

    def score(self, candidates):
        return self.inner.score(self._encode(candidates))

    def with_backend(self, backend, ann_cells=None, ann_probes=None, ann_seed=None):
        """Same estimator on another backend (re-encoding is NOT repeated)."""
        clone = LatentDensity(
            vae=self.vae, desired_class=self.desired_class, k_neighbors=self.k_neighbors)
        clone.inner = self.inner.with_backend(
            backend, ann_cells=ann_cells, ann_probes=ann_probes, ann_seed=ann_seed)
        return clone

    def get_state(self):
        inner_state = self.inner.get_state()
        state = {
            "kind": self.kind,
            "desired_class": int(self.desired_class),
            "k_neighbors": int(inner_state["k_neighbors"]),
            "reference": inner_state["reference"],
        }
        for key in _ANN_STATE_KEYS:
            if key in inner_state:
                state[key] = inner_state[key]
        return state

    @classmethod
    def from_state(cls, state, vae=None):
        model = cls(
            vae=vae,
            desired_class=state["desired_class"],
            k_neighbors=state["k_neighbors"],
            backend=state.get("backend", "exact"),
            ann_cells=state.get("ann_cells"),
            ann_probes=state.get("ann_probes"),
            ann_seed=state.get("ann_seed", 0),
        )
        model.inner.fit(np.asarray(state["reference"], dtype=np.float64))
        return model
