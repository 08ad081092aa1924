"""Warm-start batch serving for counterfactual explanations.

:class:`ExplanationService` is the request-facing entry point of the
serving subsystem: it wraps a trained pipeline (freshly trained or
rebuilt from an :class:`~repro.serve.store.ArtifactStore`), answers
``explain_batch`` requests through one :class:`repro.engine.EngineRunner`
(one ``run`` pass per batch of cache misses), and memoises per-row
results in an LRU cache.  Coalesced single-row traffic reaches a service
through :class:`repro.serve.WorkerPool` (behind the asyncio front),
which answers each routed block with :meth:`ExplanationService._answer_block`.

A service's configuration is fixed at construction.  The runner holds
the hosted overlays — a :class:`repro.density.DensityModel` selects by
the Figure 3 proximity+density score, a :class:`repro.causal.CausalModel`
repairs every batch before validity/feasibility, a
:class:`repro.models.BlackBoxEnsemble` prefers quorum-robust candidates —
and the served strategy is the given :class:`repro.engine.CFStrategy`
or a :class:`repro.engine.CoreCFStrategy`.  Cache keys carry the
pipeline, strategy and overlay fingerprints, so services of different
configurations never share an entry.  To serve another configuration,
build another service.
"""

from __future__ import annotations

import copy
import functools
import threading

import numpy as np

from ..core.result import CFBatchResult
from ..engine import CoreCFStrategy, EngineRunner
from ..utils.validation import check_count, check_encoded_rows, resolve_desired
from .cache import LRUResultCache
from .store import OVERLAY_KINDS, StaleArtifactError

__all__ = ["ExplanationService"]


class ExplanationService:
    """Serve batched counterfactual explanations from a trained pipeline.

    Parameters
    ----------
    pipeline:
        A :class:`~repro.serve.pipeline.TrainedPipeline` (cold-trained or
        loaded from a store).
    cache_size:
        LRU result-cache capacity in rows; ``0`` disables caching.
    strategy:
        Optional fitted :class:`repro.engine.CFStrategy`.  When given,
        cache-miss rows and pool-flushed blocks are explained by that
        strategy instead of the pipeline's core CF-VAE strategy.  A
        strategy with its own ``constraints`` must be flagged against
        constraints of the dataset's catalog (see
        :meth:`repro.engine.EngineRunner.flag_indices`).
    density:
        Optional fitted :class:`repro.density.DensityModel`.  When
        given, the engine runner hosts it: multi-candidate batches are
        selected density-aware, and the core path (no ``strategy``)
        switches to a diverse ``CoreCFStrategy`` sweep of
        ``density_candidates`` latent perturbations per row so there is
        a candidate set for the density criterion to act on.
    density_weight:
        Trade-off ``lambda`` of the density-aware selection score
        (finite and > 0).
    density_candidates:
        Candidates per row (an int >= 1) the core path proposes when
        ``density`` is set (ignored with an explicit ``strategy``).
    causal:
        Optional fitted :class:`repro.causal.CausalModel`.  When given,
        the engine runner hosts it: every cache-miss batch is causally
        repaired between immutable projection and the feasibility
        kernel, whichever strategy serves it.
    ensemble:
        Optional trained :class:`repro.models.BlackBoxEnsemble`.  When
        given, the engine runner hosts it: every cache-miss batch is
        scored against all K member models in one fused pass and
        quorum-robust candidates win selection.  Cache keys additionally
        carry the ensemble fingerprint.
    robust_quorum:
        Member-agreement fraction in (0, 1] a candidate needs to count as
        robust.

    Every parameter is fixed at construction, and a bad one raises
    ``ValueError`` here rather than at the first request.
    """

    def __init__(
        self,
        pipeline,
        cache_size=4096,
        strategy=None,
        density=None,
        density_weight=1.0,
        density_candidates=8,
        causal=None,
        ensemble=None,
        robust_quorum=0.5,
    ):
        check_count(density_candidates, "density_candidates", 1)
        check_count(cache_size, "cache_size", 0)
        self.pipeline = pipeline
        self.explainer = pipeline.explainer
        self.strategy = strategy
        self.fingerprint = pipeline.fingerprint
        #: The one holder of the hosted models and serving parameters
        #: (``runner.density``, ``runner.density_weight``, ...); building
        #: it here rejects a bad configuration before any request.
        self.runner = EngineRunner(
            self.encoder,
            self.explainer.blackbox,
            density=density,
            density_weight=density_weight,
            causal=causal,
            ensemble=ensemble,
            robust_quorum=robust_quorum,
        )
        #: The strategy every cache miss runs: ``strategy``, else the
        #: core sweep of ``density_candidates`` candidates with density
        #: hosted, else the one-shot deterministic decode.
        self.served_strategy = strategy or CoreCFStrategy(
            self.explainer, n_candidates=density_candidates if density is not None else 1)
        # a strategy flagged against constraints the runner lacks fails here
        self.runner.flag_indices(self.served_strategy)
        self._init_serving_state(cache_size)

    def _init_serving_state(self, cache_size):
        """Give this service its own cache, counter lock and counters."""
        self.cache = LRUResultCache(cache_size)
        #: Guards only the serving counters, so concurrent explain_batch
        #: and _answer_block calls neither lose an increment nor tear the
        #: snapshot ``stats`` returns (the cache has its own lock).
        self._lock = threading.Lock()
        self.batches_served = 0
        self.rows_served = 0
        self.flushes = 0
        self.rows_coalesced = 0
        #: Counters of the last :meth:`migrate_cache` call (None before).
        self.last_migration = None

    # -- construction --------------------------------------------------------
    @classmethod
    def warm_start(
        cls,
        store,
        name,
        expected_fingerprint=None,
        cache_size=4096,
        strategy=None,
        overlays=None,
        density_weight=1.0,
        density_candidates=8,
        robust_quorum=0.5,
        on_stale="raise",
        migrate_from=None,
        density_backend=None,
    ):
        """Build a service from a stored artifact without any training.

        ``strategy`` serves a non-core strategy on top of the warm-started
        pipeline (the store persists the shared black-box and CF-VAE; the
        strategy itself arrives fitted).

        ``overlays`` is ONE spec for every hosted model overlay — a dict
        mapping an overlay kind (``"density"``, ``"causal"``,
        ``"ensemble"``) to either an already-fitted model or the string
        ``"store"``, which rebuilds the state persisted with the
        artifact through the store's generic
        :meth:`repro.serve.ArtifactStore.load_overlay` (the warm-started
        CF-VAE is re-attached for latent density estimators, the
        warm-started encoder for causal models)::

            ExplanationService.warm_start(
                store, name,
                overlays={"density": "store", "causal": causal_model},
            )

        Raises the store's
        ``ArtifactError``/``StaleArtifactError`` when the artifact is
        missing, corrupted or stale.

        ``on_stale`` controls the rollover behaviour when
        ``expected_fingerprint`` no longer matches the stored artifact
        (the model was retrained under the service's feet):

        * ``"raise"`` (default) — propagate :class:`StaleArtifactError`
          cold, the strict historical contract;
        * ``"migrate"`` — warm-start from the artifact the store
          *currently* holds instead, then (when ``migrate_from`` is an
          old :class:`ExplanationService`) re-validate its cached
          explanations against the new model in one batched pass and
          keep the survivors (:meth:`migrate_cache`).  Internal
          corruption — a bad checksum, a schema/config drift within the
          artifact itself — still raises: migration only forgives the
          *requested-pipeline* mismatch that a rollover produces.

        ``migrate_from`` may also be combined with a successful strict
        load to carry a previous service's still-valid cache across a
        process restart.

        ``density_backend`` re-indexes the resolved density overlay on
        another neighbour backend (:data:`repro.density.DENSITY_BACKENDS`)
        before serving — the way a store-persisted exact estimator is
        served ANN-backed over a 100k+ reference without re-persisting.
        Requires a density overlay; ``None`` keeps the overlay's own
        backend.
        """
        if on_stale not in ("raise", "migrate"):
            raise ValueError(
                f'on_stale must be "raise" or "migrate", got {on_stale!r}')
        overlays = dict(overlays) if overlays else {}
        unknown = sorted(set(overlays) - set(OVERLAY_KINDS))
        if unknown:
            raise ValueError(
                f"unknown overlay kinds {unknown} in overlays; "
                f"the service hosts {list(OVERLAY_KINDS)}")

        try:
            pipeline = store.load(name, expected_fingerprint=expected_fingerprint)
        except StaleArtifactError as error:
            if (
                on_stale != "migrate"
                or expected_fingerprint is None
                or error.expected != expected_fingerprint
            ):
                raise
            # the artifact rolled past the requested pipeline: serve what
            # the store holds now (this load still enforces the artifact's
            # own internal consistency) and salvage the old cache below
            pipeline = store.load(name)
        for kind, value in overlays.items():
            if value == "store":
                overlays[kind] = store.load_overlay(
                    name,
                    kind,
                    vae=pipeline.explainer.generator.vae,
                    encoder=pipeline.encoder,
                )
        if density_backend is not None:
            if overlays.get("density") is None:
                raise ValueError(
                    "density_backend requires a density overlay; pass "
                    'overlays={"density": "store"} or a fitted estimator')
            overlays["density"] = overlays["density"].with_backend(density_backend)
        service = cls(
            pipeline,
            cache_size=cache_size,
            strategy=strategy,
            density=overlays.get("density"),
            density_weight=density_weight,
            density_candidates=density_candidates,
            causal=overlays.get("causal"),
            ensemble=overlays.get("ensemble"),
            robust_quorum=robust_quorum,
        )
        if migrate_from is not None:
            service.migrate_cache(migrate_from)
        return service

    @property
    def encoder(self):
        """The pipeline's fitted tabular encoder."""
        return self.explainer.encoder

    @property
    def dataset(self):
        """Name of the dataset the pipeline was trained on."""
        return self.pipeline.dataset

    def clone(self):
        """A sibling replica of this service for a worker pool.

        The clone shares the pipeline, the runner, the served strategy
        and (once computed) the cache fingerprint; it owns its own LRU
        cache of the same capacity, its own counter lock and counters.
        """
        replica = copy.copy(self)
        replica._init_serving_state(self.cache.capacity)
        return replica

    @functools.cached_property
    def cache_fingerprint(self):
        """Composite cache-key component:
        ``pipeline:strategy:density:causal:ensemble``.

        ``"core"`` without a strategy and ``"none"`` for an absent
        overlay.  The density component is tagged ``@w<density_weight>``
        and the ensemble one ``@q<robust_quorum>``: both change which
        candidate wins selection.  Computed once, on first use (hashing
        a density reference is not free), since the configuration is
        fixed at construction.
        """
        runner = self.runner
        strategy = self.strategy.fingerprint() if self.strategy is not None else "core"
        density = causal = ensemble = "none"
        if runner.density is not None:
            density = f"{runner.density.fingerprint()}@w{runner.density_weight}"
        if runner.causal is not None:
            causal = runner.causal.fingerprint()
        if runner.ensemble is not None:
            ensemble = f"{runner.ensemble.fingerprint()}@q{runner.robust_quorum}"
        return f"{self.fingerprint}:{strategy}:{density}:{causal}:{ensemble}"

    def _key(self, row, desired, fingerprint):
        return (row.tobytes(), int(desired), fingerprint)

    # -- rollover migration ---------------------------------------------------
    def migrate_cache(self, old_service):
        """Carry another service's cache across a model rollover.

        Re-validates every explanation cached by ``old_service`` (under
        its own composite fingerprint) against *this* service's model in
        ONE batched pass — one black-box predict over the cached
        counterfactuals plus one feasibility pass of the runner's kernel,
        flagged against the served strategy's constraint columns exactly
        as a cache miss is — and re-inserts the rows whose
        counterfactual still reaches its desired class under the new
        model, keyed under this service's fingerprint.  Survivors keep
        serving from memory after a retrain; dropped rows fall back to
        cache misses and are re-explained by the new model on their next
        request.

        Returns (and records in :attr:`last_migration`) the counters
        ``{"examined", "survivors", "dropped"}``.
        """
        width = self.encoder.n_encoded
        old_fingerprint = old_service.cache_fingerprint
        rows, desired, x_cf = [], [], []
        for (row_bytes, target, fingerprint), entry in old_service.cache.items():
            if fingerprint != old_fingerprint:
                continue
            row = np.frombuffer(row_bytes, dtype=np.float64)
            if row.shape[0] != width:
                continue
            rows.append(row)
            desired.append(int(target))
            x_cf.append(entry[0])

        counters = {"examined": len(rows), "survivors": 0, "dropped": 0}
        if rows:
            rows = np.stack(rows)
            desired = np.asarray(desired, dtype=int)
            x_cf = np.stack(x_cf)
            predicted = self.explainer.blackbox.predict(x_cf)
            runner = self.runner
            feasible = runner.kernel.evaluate(rows, x_cf).subset_satisfied(
                runner.flag_indices(self.served_strategy))
            survivors = predicted == desired
            fingerprint = self.cache_fingerprint
            for i in np.flatnonzero(survivors):
                self.cache.put(
                    self._key(rows[i], desired[i], fingerprint),
                    (x_cf[i].copy(), int(predicted[i]), bool(feasible[i])),
                )
            counters["survivors"] = int(survivors.sum())
            counters["dropped"] = int((~survivors).sum())
        self.last_migration = counters
        return counters

    # -- batch serving -------------------------------------------------------
    def explain_batch(self, rows, desired=None):
        """Explain many rows at once; returns a :class:`CFBatchResult`.

        Rows already in the cache are answered from memory; the remaining
        rows are coalesced into ONE engine-runner pass of the served
        strategy (one proposal, one validity call, one feasibility
        call) — without a strategy or overlays, exactly the one-shot
        ``FeasibleCFExplainer.explain`` computation.  ``desired`` takes
        every form :func:`repro.utils.validation.resolve_desired` does.
        """
        rows = check_encoded_rows(rows, self.encoder, "rows")
        desired = resolve_desired(self.explainer.blackbox, rows, desired)

        n_rows, width = rows.shape
        x_cf = np.empty((n_rows, width))
        predicted = np.empty(n_rows, dtype=int)
        feasible = np.empty(n_rows, dtype=bool)

        # invariant for the whole batch: hoist it off the per-row path
        fingerprint = self.cache_fingerprint
        miss_indices = []
        for i in range(n_rows):
            entry = self.cache.get(self._key(rows[i], desired[i], fingerprint))
            if entry is None:
                miss_indices.append(i)
            else:
                x_cf[i], predicted[i], feasible[i] = entry

        if miss_indices:
            miss = np.asarray(miss_indices)
            sub = self.runner.run(self.served_strategy, rows[miss], desired[miss])
            x_cf[miss] = sub.x_cf
            predicted[miss] = sub.predicted
            feasible[miss] = sub.feasible
            for j, i in enumerate(miss_indices):
                # .copy(): caching a view would pin the whole batch array
                # in memory until every one of its rows was evicted
                self.cache.put(
                    self._key(rows[i], desired[i], fingerprint),
                    (sub.x_cf[j].copy(), int(sub.predicted[j]), bool(sub.feasible[j])),
                )

        with self._lock:
            self.batches_served += 1
            self.rows_served += n_rows
        return CFBatchResult(
            x=rows,
            x_cf=x_cf,
            desired=desired,
            predicted=predicted,
            valid=predicted == desired,
            feasible=feasible,
            encoder=self.encoder,
        )

    # -- coalesced block serving ---------------------------------------------
    def _answer_block(self, strategy, rows, desired):
        """ONE runner pass over checked rows and resolved classes; a result dict per row.

        How :meth:`WorkerPool.flush_rows` turns a routed shard into
        answers; the pass counts as one flush of ``len(rows)`` rows.
        """
        result, diagnostics = self.runner.run(strategy, rows, desired, return_diagnostics=True)
        columns = zip(result.x_cf, *(column.tolist() for column in (
            desired, result.predicted, result.valid, result.feasible,
            diagnostics["chosen"], diagnostics["n_usable"], diagnostics["n_valid"])))
        answers = [
            {"x_cf": x_cf, "desired": target, "predicted": predicted, "valid": valid,
             "feasible": feasible, "chosen": chosen, "n_usable": n_usable, "n_valid": n_valid}
            for x_cf, target, predicted, valid, feasible, chosen, n_usable, n_valid in columns
        ]
        with self._lock:
            self.flushes += 1
            self.rows_coalesced += len(answers)
        return answers

    # -- introspection --------------------------------------------------------
    @property
    def stats(self):
        """Serving + cache counters for dashboards and tests.

        The serving counters are read under the service lock and the
        cache counters under the cache's own lock, so each group is a
        consistent snapshot even under concurrent traffic.
        """
        with self._lock:
            counters = {
                "batches_served": self.batches_served,
                "rows_served": self.rows_served,
                "flushes": self.flushes,
                "rows_coalesced": self.rows_coalesced,
            }
        counters.update({f"cache_{k}": v for k, v in self.cache.stats.items()})
        return counters
