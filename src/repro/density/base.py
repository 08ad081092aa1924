"""The ``DensityModel`` contract every estimator and consumer shares.

Density is the paper's third pillar: among feasible counterfactuals,
prefer one sitting in a *dense region* of feasible examples (Figure 3).
Before this layer existed the stack estimated density three independent
ways — the selection module, FACE and the manifold diagnostics each
built their own ``cKDTree`` — and neither the engine's Table IV metrics
nor the serving layer knew density existed at all.

:class:`DensityModel` is the one batch-first interface they all share:

* ``fit(reference)`` — index a reference population once,
* ``score(candidates)`` — a per-row *region-sparsity cost* (lower means
  denser), shape ``(n,)``,
* ``score_tiled(candidates)`` — the sweep path: a full
  ``(n_rows, n_candidates, d)`` candidate tensor scored in ONE backend
  query, bit-identical to one query per input row for per-point
  backends,
* ``get_state`` / ``from_state`` — a flat, array-or-scalar state dict
  the artifact store persists, plus a :meth:`DensityModel.fingerprint`
  over it so stale density state is rejected exactly like stale model
  weights.

``build_density`` is the single factory the selector, the engine
runner, the scenario registry and the serving layer call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "DENSITY_BACKENDS",
    "DENSITY_NAMES",
    "DEFAULT_TILE_BUDGET",
    "DensityModel",
    "build_density",
    "density_from_state",
    "fit_class_density",
]

#: Estimator names the factory accepts.
DENSITY_NAMES = ("knn", "kde", "latent")

#: Neighbour-query backends the k-NN estimators accept: ``exact`` (the
#: cKDTree — bit-identical to the historical path, always the default)
#: or ``ann`` (the batched IVF index of :mod:`repro.density.ann`, which
#: trades bit-parity for a measured recall@k >= 0.9 contract and scales
#: to million-row reference populations).
DENSITY_BACKENDS = ("exact", "ann")

#: Default element budget (float64 entries, ~128 MiB) for any scoring
#: intermediate proportional to the reference size: the flattened
#: ``score_tiled`` batch and the KDE ``(chunk, n_reference)`` distance
#: matrix are both chunked to stay under it.  Estimators accept a
#: ``tile_budget`` override; ``None`` means this default.
DEFAULT_TILE_BUDGET = 1 << 24


def _tile_chunk_rows(n_reference, tile_budget):
    """Rows per scoring chunk that keep ``rows * n_reference`` in budget."""
    budget = DEFAULT_TILE_BUDGET if tile_budget is None else int(tile_budget)
    return max(1, budget // max(1, int(n_reference)))


class DensityModel(ABC):
    """Batch-first density estimator over a fitted reference population.

    Scores are *costs*: lower means the candidate sits in a denser
    region of the reference population.  Every estimator keeps that
    direction so ``proximity + weight * density`` trade-offs compose the
    same way regardless of the backend.
    """

    #: Registry name of the estimator (``knn`` / ``kde`` / ``latent``).
    kind = "density"

    #: State keys that shape performance but never the scores; excluded
    #: from :meth:`fingerprint` so two estimators agree exactly when
    #: they would produce the same scores.
    fingerprint_excludes = ()

    @abstractmethod
    def fit(self, reference):
        """Index a ``(n_reference, d)`` population; returns ``self``."""

    @abstractmethod
    def score(self, candidates):
        """Region-sparsity cost per row of a ``(n, d)`` matrix (lower = denser)."""

    @property
    @abstractmethod
    def n_reference(self):
        """Rows in the fitted reference population (0 when unfitted)."""

    # -- backend selection ---------------------------------------------------
    def with_backend(self, backend, **ann_params):
        """This estimator on another neighbour backend (see DENSITY_BACKENDS).

        The base implementation only knows the exact path; estimators
        with an approximate index (the k-NN family) override it.
        """
        if backend == "exact":
            return self
        raise ValueError(
            f"{self.kind!r} density has no {backend!r} backend; "
            f"only the k-NN estimators support {DENSITY_BACKENDS[1:]}"
        )

    # -- tiled sweep scoring -------------------------------------------------
    def score_tiled(self, candidates):
        """Score a full ``(n_rows, n_candidates, d)`` sweep, flattened.

        The compiled path: the sweep is flattened once and handed to the
        backend in batches bounded by the estimator's tile budget
        (``tile_budget`` attribute, :data:`DEFAULT_TILE_BUDGET` rows ×
        reference elements by default), so a density-aware selection
        over ``n * m`` candidates costs a handful of bulk queries
        instead of ``n`` — and a 100k-row reference cannot provoke a
        multi-GB intermediate.  Chunking is over *query rows* and every
        estimator's per-row math is row-independent, so the result is
        bit-identical to the historical single-call flattening at any
        budget.  For per-point backends (the k-NN tree) values are also
        bit-identical to one query per input row; estimators that run
        matmuls (KDE, latent encoding) are numerically equivalent but
        may differ at float precision because BLAS blocking varies with
        batch shape.
        """
        candidates = _check_3d(candidates)
        n, m, d = candidates.shape
        flat = candidates.reshape(n * m, d)
        chunk = _tile_chunk_rows(self.n_reference, getattr(self, "tile_budget", None))
        if chunk >= n * m:
            return self.score(flat).reshape(n, m)
        out = np.empty(n * m)
        for start in range(0, n * m, chunk):
            out[start : start + chunk] = self.score(flat[start : start + chunk])
        return out.reshape(n, m)

    # -- persistence ---------------------------------------------------------
    @abstractmethod
    def get_state(self):
        """Flat state dict: ``kind`` plus ndarray / plain-scalar values."""

    @classmethod
    @abstractmethod
    def from_state(cls, state):
        """Rebuild a fitted estimator from :meth:`get_state` output."""

    def fingerprint(self):
        """Deterministic hash of the fitted state, for caches and the store.

        Delegates to the shared :func:`repro.serve.persist.fingerprint_state`
        contract (arrays hashed by content, scalars canonically
        JSON-encoded), so two estimators agree exactly when they would
        produce the same scores.
        """
        from ..serve.persist import fingerprint_state

        return fingerprint_state(self.get_state(), self.fingerprint_excludes)


def _check_3d(candidates):
    """Validate a candidate sweep tensor; returns it as float64."""
    candidates = np.asarray(candidates, dtype=np.float64)
    if candidates.ndim != 3:
        raise ValueError(
            f"candidate sweep must be (n_rows, n_candidates, d), got shape {candidates.shape}"
        )
    return candidates


def build_density(name, k_neighbors=10, bandwidth=None, vae=None, desired_class=1,
                  backend="exact", ann_cells=None, ann_probes=None, ann_seed=0):
    """Construct an unfitted estimator by registry name.

    Parameters
    ----------
    name:
        One of :data:`DENSITY_NAMES`.
    k_neighbors:
        Neighbourhood size for the ``knn`` estimator (and the latent
        estimator's inner k-NN).
    bandwidth:
        Optional per-feature bandwidth override for ``kde`` (defaults to
        Scott's rule at fit time).
    vae:
        Trained :class:`repro.models.ConditionalVAE` — required by the
        ``latent`` estimator, ignored otherwise.
    desired_class:
        Class label the ``latent`` estimator conditions its encoder on.
    backend:
        Neighbour backend of the k-NN estimators, one of
        :data:`DENSITY_BACKENDS`.  The ``kde`` estimator has no
        approximate form and rejects anything but ``"exact"``.
    ann_cells / ann_probes / ann_seed:
        :class:`repro.density.ann.AnnIndex` knobs for the ``ann``
        backend (``None`` = the index defaults).
    """
    from .estimators import GaussianKdeDensity, KnnDensity, LatentDensity

    if backend not in DENSITY_BACKENDS:
        raise ValueError(
            f"unknown density backend {backend!r}; options: {DENSITY_BACKENDS}")
    if name == "knn":
        return KnnDensity(k_neighbors=k_neighbors, backend=backend, ann_cells=ann_cells,
                          ann_probes=ann_probes, ann_seed=ann_seed)
    if name == "kde":
        if backend != "exact":
            raise ValueError(
                f"the kde estimator has no {backend!r} backend; "
                f"use knn or latent for approximate neighbour queries")
        return GaussianKdeDensity(bandwidth=bandwidth)
    if name == "latent":
        return LatentDensity(vae=vae, desired_class=desired_class, k_neighbors=k_neighbors,
                             backend=backend, ann_cells=ann_cells, ann_probes=ann_probes,
                             ann_seed=ann_seed)
    raise KeyError(f"unknown density estimator {name!r}; options: {DENSITY_NAMES}")


def fit_class_density(name, x, y, desired_class, vae=None, k_neighbors=10, backend="exact"):
    """Build the named estimator and fit it on one class's rows.

    The shared recipe every density consumer uses for a labelled
    reference population — scenarios, the serve demo and the benchmarks
    all estimate density over the *desired-class* examples (the region a
    counterfactual should land in).  Centralising the slice keeps the
    reference policy in one place.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    desired_class = int(desired_class)
    model = build_density(name, k_neighbors=k_neighbors, vae=vae,
                          desired_class=desired_class, backend=backend)
    return model.fit(x[y == desired_class])


def density_from_state(state, vae=None):
    """Rebuild a fitted estimator from a persisted state dict.

    The inverse of :meth:`DensityModel.get_state`, dispatched on the
    ``kind`` entry.  ``vae`` re-attaches the encoder the ``latent``
    estimator scores through (the store persists density state, never a
    second copy of the VAE weights).
    """
    from .differentiable import DifferentiableKde, LatentSoftMinDensity
    from .estimators import GaussianKdeDensity, KnnDensity, LatentDensity

    kind = state.get("kind")
    if kind == "knn":
        return KnnDensity.from_state(state)
    if kind == "kde":
        return GaussianKdeDensity.from_state(state)
    if kind == "latent":
        return LatentDensity.from_state(state, vae=vae)
    if kind == "kde_diff":
        return DifferentiableKde.from_state(state)
    if kind == "latent_soft":
        return LatentSoftMinDensity.from_state(state, vae=vae)
    raise KeyError(f"unknown density state kind {kind!r}; options: {DENSITY_NAMES}")
