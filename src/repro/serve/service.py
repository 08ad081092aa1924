"""Warm-start batch serving for counterfactual explanations.

:class:`ExplanationService` is the request-facing entry point of the
serving subsystem: it wraps a trained pipeline (freshly trained or
rebuilt from an :class:`~repro.serve.store.ArtifactStore`), answers
``explain_batch`` requests through the shared
:class:`repro.engine.EngineRunner` (one ``run`` pass per batch of
cache misses), and memoises per-row results in an LRU cache keyed on
the pipeline fingerprint.  Coalesced single-row traffic reaches a service
through :class:`repro.serve.WorkerPool` (behind the asyncio front),
which answers each routed block with :meth:`ExplanationService._answer_block`.

The service is strategy-agnostic: without a strategy it serves the
core CF-VAE through a :class:`repro.engine.CoreCFStrategy`; pass any
fitted :class:`repro.engine.CFStrategy` (a baseline, or a
diverse-candidate core strategy) and batches route through that one
instead.  Cache keys carry a strategy fingerprint, so results from
different strategies never collide.

It is also density-aware: pass a fitted
:class:`repro.density.DensityModel` (or warm-start one straight from
the artifact store's persisted density state) and cache-miss rows are
selected by the Figure 3 proximity+density score through the engine
runner — the paper's density criterion survives a process restart.
Cache keys additionally carry the density fingerprint.

And it is causality-aware: pass a fitted
:class:`repro.causal.CausalModel` (or warm-start one from the store's
persisted causal state) and every cache-miss batch is causally repaired
by the engine runner before validity/feasibility — the paper's first
pillar survives a process restart too.  Cache keys additionally carry
the causal fingerprint.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.result import CFBatchResult
from ..engine import CoreCFStrategy, EngineRunner
from ..utils.validation import check_encoded_rows, check_positive, resolve_desired
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
        strategy instead of the pipeline's core CF-VAE strategy.
    density:
        Optional fitted :class:`repro.density.DensityModel`.  When
        given, the engine runner hosts it: multi-candidate batches are
        selected density-aware, and the core path (no ``strategy``)
        switches to a diverse ``CoreCFStrategy`` sweep of
        ``density_candidates`` latent perturbations per row so there is
        a candidate set for the density criterion to act on.
    density_weight:
        Trade-off ``lambda`` of the density-aware selection score.
    density_candidates:
        Candidates per row the core path proposes when ``density`` is
        set (ignored with an explicit ``strategy``).
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
        Member-agreement fraction a candidate needs to count as robust.
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
        self.pipeline = pipeline
        self.explainer = pipeline.explainer
        self.strategy = strategy
        self.density = density
        self.density_weight = density_weight
        self.density_candidates = int(density_candidates)
        self.causal = causal
        self.ensemble = ensemble
        self.robust_quorum = float(robust_quorum)
        self.fingerprint = pipeline.fingerprint
        #: kind -> (model identity, raw fingerprint) memo behind the
        #: ``*_fingerprint`` properties; see :meth:`_overlay_fingerprint`.
        self._fingerprint_memo = {}
        self._runner = None
        #: n_candidates -> default-rng CoreCFStrategy; one object per
        #: sweep size, so its memoised default noise draw is reused, and
        #: shared with sibling replicas by :meth:`adopt_execution_from`.
        self._core_strategies = {}
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
    def density_weight(self):
        """Trade-off ``lambda`` of the Figure 3 score (finite and > 0).

        Checked on every assignment, so a bad weight fails where it is
        set rather than at the first request that builds the runner.
        """
        return self._density_weight

    @density_weight.setter
    def density_weight(self, value):
        self._density_weight = check_positive(value, "density_weight")

    @property
    def runner(self):
        """Shared engine runner over the pipeline (built lazily).

        Rebuilt when :attr:`density`, :attr:`density_weight`,
        :attr:`causal`, :attr:`ensemble` or :attr:`robust_quorum` is
        re-pointed so the hosted model configuration always matches the
        one the cache keys are derived from.
        """
        if (
            self._runner is None
            or self._runner.density is not self.density
            or self._runner.density_weight != self.density_weight
            or self._runner.causal is not self.causal
            or self._runner.ensemble is not self.ensemble
            or self._runner.robust_quorum != self.robust_quorum
        ):
            self._runner = EngineRunner(
                self.encoder,
                self.explainer.blackbox,
                density=self.density,
                density_weight=self.density_weight,
                causal=self.causal,
                ensemble=self.ensemble,
                robust_quorum=self.robust_quorum,
            )
        return self._runner

    @property
    def core_strategy(self):
        """Core strategy ``explain_batch`` serves when no strategy is set.

        Density-aware serving proposes a diverse latent sweep of
        ``density_candidates`` so the Figure 3 criterion has candidates
        to rank; otherwise the one-shot deterministic decode (the
        ``FeasibleCFExplainer.explain`` computation).
        """
        return self._core_strategy_for(self.density_candidates if self.density is not None else 1)

    def _core_strategy_for(self, n_candidates):
        """The cached default-rng :class:`CoreCFStrategy` of one sweep size."""
        strategy = self._core_strategies.get(n_candidates)
        if strategy is None:
            strategy = self._core_strategies.setdefault(
                n_candidates, CoreCFStrategy(self.explainer, n_candidates=n_candidates)
            )
        return strategy

    @property
    def encoder(self):
        """The pipeline's fitted tabular encoder."""
        return self.explainer.encoder

    @property
    def dataset(self):
        """Name of the dataset the pipeline was trained on."""
        return self.pipeline.dataset

    # -- fingerprints --------------------------------------------------------
    def _overlay_fingerprint(self, kind, obj, default, suffix=""):
        """Identity-memoised fingerprint of one served model slot.

        The one recompute rule behind every ``*_fingerprint`` property:
        the fingerprint is recomputed when the slot is re-pointed at a
        different object (identity comparison), so switching models can
        never serve stale cross-model cache hits — while an in-place
        refit of the hosted instance is *not* detected (attach a freshly
        fitted model instead).  ``suffix`` tags cache-relevant serving
        parameters (selection weight, robustness quorum) onto a hosted
        model's fingerprint; slots without a model report ``default``
        untagged.
        """
        memo = self._fingerprint_memo.get(kind)
        if memo is None or memo[0] is not obj:
            value = obj.fingerprint() if obj is not None else default
            self._fingerprint_memo[kind] = (obj, value)
        else:
            value = memo[1]
        if obj is None:
            return value
        return f"{value}{suffix}"

    @property
    def strategy_fingerprint(self):
        """Fingerprint of the currently served strategy (``"core"`` if none)."""
        return self._overlay_fingerprint("strategy", self.strategy, "core")

    @property
    def density_fingerprint(self):
        """Fingerprint of the served density configuration.

        ``"none"`` without a model; otherwise the estimator fingerprint
        tagged with the selection weight (the weight changes which
        candidate wins, so it is cache-relevant).
        """
        return self._overlay_fingerprint(
            "density", self.density, "none", suffix=f"@w{self.density_weight}")

    @property
    def causal_fingerprint(self):
        """Fingerprint of the served causal configuration (``"none"`` if none)."""
        return self._overlay_fingerprint("causal", self.causal, "none")

    @property
    def ensemble_fingerprint(self):
        """Fingerprint of the served ensemble configuration.

        ``"none"`` without an ensemble; otherwise the ensemble
        fingerprint tagged with the quorum (the quorum changes which
        candidate wins selection, so it is cache-relevant).
        """
        return self._overlay_fingerprint(
            "ensemble", self.ensemble, "none", suffix=f"@q{self.robust_quorum}")

    @property
    def cache_fingerprint(self):
        """Composite cache-key component:
        ``pipeline:strategy:density:causal:ensemble``.

        Uses the pipeline fingerprint hashed once at construction —
        recomputing it per lookup would re-serialise the config and
        schema on every cached row.
        """
        return (
            f"{self.fingerprint}:{self.strategy_fingerprint}"
            f":{self.density_fingerprint}:{self.causal_fingerprint}"
            f":{self.ensemble_fingerprint}"
        )

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
                runner.flag_indices(self.strategy or self.core_strategy))
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
            sub = self.runner.run(self.strategy or self.core_strategy, rows[miss], desired[miss])
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

    # -- execution-state sharing ----------------------------------------------
    def adopt_execution_from(self, sibling):
        """Reuse a sibling replica's execution state.

        A scaled-out worker pool runs N services over ONE shared
        pipeline; without sharing, every replica would build its own
        :class:`EngineRunner` and its own core strategies.  This adopts
        the sibling's runner and core strategies so the pool holds
        exactly one of each (the runner keeps all state at construction
        time and ``run`` keeps none per call, so concurrent runs are
        safe).

        Only legal between services hosting the *identical* model
        objects and execution configuration — anything else would let a
        cache key describe one configuration while another one serves,
        so it raises ``ValueError`` instead.
        """
        mismatched = [
            name
            for name, mine, theirs in (
                ("strategy", self.strategy, sibling.strategy),
                ("density", self.density, sibling.density),
                ("causal", self.causal, sibling.causal),
                ("ensemble", self.ensemble, sibling.ensemble),
            )
            if mine is not theirs
        ]
        if (
            self.density_weight != sibling.density_weight
            or self.density_candidates != sibling.density_candidates
        ):
            mismatched.append("density configuration")
        if self.robust_quorum != sibling.robust_quorum:
            mismatched.append("robust_quorum")
        if mismatched:
            raise ValueError(
                "cannot adopt execution state across differently configured "
                f"services (mismatched: {', '.join(mismatched)})")
        self._runner = sibling.runner
        self._core_strategies = sibling._core_strategies
        return self

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
