"""Horizontally scaled serving: worker pool + coalescing async front.

``ExplanationService`` is one warm process; this module turns it into a
fleet.  Two pieces compose:

* :class:`WorkerPool` — N warm replicas over ONE shared trained
  pipeline.  The leader replica warm-starts from the
  :class:`~repro.serve.store.ArtifactStore` through the standard
  ``warm_start(overlays={...})`` contract; siblings are its clones
  (:meth:`ExplanationService.clone`), sharing its pipeline, engine
  runner and served strategy.  The replicas run in-process, on the
  calling thread, and hold one copy of every model array.
  Requests shard across replicas by
  :class:`~repro.serve.routing.ConsistentHashRing` over the composite
  cache fingerprint plus row bytes, so each replica's LRU cache owns a
  stable slice of the key space and aggregate cache capacity grows with
  the replica count.
* :class:`AsyncExplanationService` — an asyncio front for single-row
  traffic.  ``await front.explain(row)`` enqueues the request, coalesces
  arrivals for ``coalesce_window`` seconds (or until ``max_batch``),
  then drains the batch through :meth:`WorkerPool.flush_rows` in one
  event-loop callback (one engine-runner pass per routed shard, the
  shards answered in turn); every request resolves as a future.  The
  work holds the GIL, so a thread hand-off would add latency and no
  overlap; a flush blocks the loop for its duration instead.  A
  request that is not resolved within its
  ``timeout`` raises the builtin ``TimeoutError``; if its batch has not
  drained yet, it leaves the batch and its row is never computed.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np

from ..core.result import CFBatchResult
from ..engine import CoreCFStrategy
from ..utils.validation import (
    SchemaMismatchError,
    check_count,
    check_desired,
    check_encoded_rows,
    check_schema_width,
    resolve_desired,
)
from .routing import ConsistentHashRing, request_hashes, request_key
from .service import ExplanationService

__all__ = ["AsyncExplanationService", "WorkerPool"]


class WorkerPool:
    """N warm serving replicas behind consistent-hash request routing.

    Parameters
    ----------
    store, name:
        The :class:`~repro.serve.store.ArtifactStore` and artifact the
        leader replica warm-starts from (full staleness/corruption
        checking applies).
    n_replicas:
        Replica count; each replica owns a private LRU cache of
        ``cache_size`` rows and a stable consistent-hash shard.
    overlays, strategy, cache_size, density_weight, density_candidates,
    robust_quorum:
        Forwarded to :meth:`ExplanationService.warm_start` for the
        leader; the other replicas are its clones.
    flush_kwargs:
        ``{"n_candidates": m}`` (default 8): the latent sweep size of
        the core strategy :meth:`flush_rows` answers each routed shard
        with when no ``strategy`` is served.  Checked here: another key,
        or an ``m`` that is not an int >= 1, raises ``ValueError``.
    backend, shared_weights:
        Removed options, still accepted at their one remaining value
        (``"thread"`` and ``False``) because the e2e benchmark passes
        them; any other value raises ``ValueError``.  Drop both once
        the benchmark stops passing them.
    """

    def __init__(
        self,
        store,
        name,
        n_replicas=2,
        backend="thread",
        overlays=None,
        strategy=None,
        cache_size=4096,
        density_weight=1.0,
        density_candidates=8,
        robust_quorum=0.5,
        shared_weights=False,
        flush_kwargs=None,
    ):
        if backend != "thread":
            raise ValueError(
                f"backend={backend!r} was removed; replicas answer their "
                "shards one after another on the caller's thread")
        if shared_weights:
            raise ValueError(
                "shared_weights=True was removed; replicas share one "
                "in-process copy of the weights")
        self.n_replicas = n_replicas = check_count(n_replicas, "n_replicas", 1)
        flush_kwargs = dict(flush_kwargs or {})
        unknown = sorted(set(flush_kwargs) - {"n_candidates"})
        if unknown:
            raise ValueError(
                f"unknown flush_kwargs {unknown}; the only key is 'n_candidates'")
        n_candidates = check_count(flush_kwargs.get("n_candidates", 8), "n_candidates", 1)

        leader = ExplanationService.warm_start(
            store,
            name,
            cache_size=cache_size,
            strategy=strategy,
            overlays=overlays,
            density_weight=density_weight,
            density_candidates=density_candidates,
            robust_quorum=robust_quorum,
        )
        #: The pool's composite cache fingerprint (the routing key),
        #: computed before cloning so every replica shares it.
        self.fingerprint = leader.cache_fingerprint
        self.replicas = [leader] + [leader.clone() for _ in range(1, n_replicas)]
        #: The strategy every routed shard of :meth:`flush_rows` runs:
        #: the served one, else one core sweep of ``n_candidates``.
        self._shard_strategy = leader.strategy or CoreCFStrategy(
            leader.explainer, n_candidates=n_candidates)
        #: The served pipeline's fitted encoder (the request schema).
        self.encoder = leader.encoder
        self.ring = ConsistentHashRing(range(n_replicas))
        self._closed = False

    # -- routing -------------------------------------------------------------
    def route(self, row, desired=None):
        """Replica index owning one ``(row, desired)`` request."""
        return self.ring.node_for(request_key(self.fingerprint, row, desired))

    def _assign(self, rows, desired):
        """Replica of every row of a resolved batch (what :meth:`route` gives each)."""
        return self.ring.nodes_for_hashes(
            request_hashes(self.fingerprint, rows, desired.tolist()))

    def _resolve(self, rows, desired):
        rows = check_encoded_rows(rows, self.encoder, "rows")
        return rows, resolve_desired(self.replicas[0].explainer.blackbox, rows, desired)

    def _shards(self, rows, desired):
        """``(replica, indices)`` of every non-empty routed shard, in ring order."""
        if self._closed:
            raise RuntimeError("this WorkerPool is closed; build a new pool to serve more rows")
        assignment = self._assign(rows, desired)
        shards = []
        for node in self.ring.nodes:
            indices = np.flatnonzero(assignment == node)
            if len(indices):
                shards.append((self.replicas[node], indices))
        return shards

    # -- batch serving -------------------------------------------------------
    def explain_batch(self, rows, desired=None):
        """Explain many rows across the pool; returns a :class:`CFBatchResult`.

        The batch is partitioned by consistent-hash routing, every
        shard is answered by its replica in turn, and the results
        reassemble in request order.  A closed pool raises ``RuntimeError``.
        """
        rows, desired = self._resolve(rows, desired)
        n_rows = len(rows)
        x_cf = np.empty(rows.shape)
        predicted = np.empty(n_rows, dtype=int)
        feasible = np.empty(n_rows, dtype=bool)
        for replica, indices in self._shards(rows, desired):
            part = replica.explain_batch(rows[indices], desired[indices])
            x_cf[indices] = part.x_cf
            predicted[indices] = part.predicted
            feasible[indices] = part.feasible

        return CFBatchResult(
            x=rows,
            x_cf=x_cf,
            desired=desired,
            predicted=predicted,
            valid=predicted == desired,
            feasible=feasible,
            encoder=self.encoder,
        )

    # -- micro-batched single-row serving -------------------------------------
    def flush_rows(self, rows, desired=None):
        """Answer coalesced single-row requests; their result dicts in request order.

        The async front's drain path: the batch is checked and resolved
        once, then every replica in turn answers its routed shard in ONE
        runner pass of the strategy fixed at construction.  A closed
        pool raises ``RuntimeError``.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        rows, desired = self._resolve(rows, desired)
        results = [None] * len(rows)
        for replica, indices in self._shards(rows, desired):
            answers = replica._answer_block(self._shard_strategy, rows[indices], desired[indices])
            for position, result in zip(indices.tolist(), answers):
                results[position] = result
        return results

    # -- introspection --------------------------------------------------------
    def stats(self):
        """Pool-level aggregation of every replica's serving counters.

        Returns ``{"per_replica": [...], "aggregate": {...}}``; each
        per-replica dict gains derived ``hit_rate`` and
        ``mean_batch_size`` fields for dashboards (and the serve-demo
        CLI table).
        """
        per_replica = [
            _with_rates(dict(replica.stats, replica=index))
            for index, replica in enumerate(self.replicas)
        ]
        aggregate = {
            key: sum(counters[key] for counters in per_replica)
            for key in ("rows_served", "rows_coalesced", "flushes", "cache_hits", "cache_misses")
        }
        aggregate["replicas"] = self.n_replicas
        return {"per_replica": per_replica, "aggregate": _with_rates(aggregate)}

    # -- lifecycle -----------------------------------------------------------
    def close(self):
        """Refuse further requests: later calls raise ``RuntimeError``."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _with_rates(counters):
    """Add the derived ``requests``, ``hit_rate`` and ``mean_batch_size`` fields."""
    lookups = counters["cache_hits"] + counters["cache_misses"]
    # rows_served counts batch-path rows, rows_coalesced counts flush-path
    # rows; a request went through exactly one of them
    counters["requests"] = counters["rows_served"] + counters["rows_coalesced"]
    counters["hit_rate"] = counters["cache_hits"] / lookups if lookups else 0.0
    counters["mean_batch_size"] = (
        counters["rows_coalesced"] / counters["flushes"] if counters["flushes"] else 0.0)
    return counters


class AsyncExplanationService:
    """Asyncio front coalescing single-row requests into pool flushes.

    Parameters
    ----------
    pool:
        The :class:`WorkerPool` (or any object with ``flush_rows``,
        ``stats`` and ``encoder``) answering the coalesced batches.
    coalesce_window:
        Seconds to hold the first request of a batch while more arrive.
    max_batch:
        Drain at the loop's next turn once this many requests are queued.

    The first request of a batch arms ``loop.call_later(coalesce_window)``
    and the ``max_batch``-th swaps it for ``loop.call_soon``: the batch
    drains in that loop callback, never inside the ``explain`` call, which
    would resolve the last client's future before it yields and let it
    queue its next request ahead of the others.
    """

    def __init__(self, pool, coalesce_window=0.002, max_batch=256):
        coalesce_window = float(coalesce_window)
        # a NaN or infinite window would never fire, so a batch short of
        # max_batch would never drain
        if not math.isfinite(coalesce_window) or coalesce_window < 0:
            raise ValueError(
                f"coalesce_window must be finite and >= 0, got {coalesce_window}")
        self.max_batch = check_count(max_batch, "max_batch", 1)
        self.pool = pool
        #: encoded width every request row must have
        self._width = pool.encoder.n_encoded
        self.coalesce_window = coalesce_window
        self._queue = []
        #: The armed drain callback's handle (None while nothing is queued).
        self._drain_handle = None
        self._closed = False
        self.requests = 0
        self.flushes = 0
        self.rows_coalesced = 0

    async def explain(self, row, desired=None, timeout=None):
        """Explain one row; resolves when its coalesced batch flushes.

        Returns the result dict (``x_cf``, ``desired``, ``predicted``,
        ``valid``, ``feasible``, ...).  With ``timeout``, a request still
        pending after that many seconds raises ``TimeoutError`` (and
        leaves its batch if that has not drained yet).  A bad
        request fails alone: a ``desired`` other than None, 0 or 1
        (``ValueError``) and a row of the wrong width
        (``SchemaMismatchError``) raise here, before joining a batch; a
        non-finite row's own future raises ``SchemaMismatchError``.  After
        :meth:`aclose` this raises ``RuntimeError``.
        """
        if self._closed:
            raise RuntimeError("async front is closed; it takes no new requests")
        check_desired(desired)
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        if len(row) != self._width:  # a shape compare per request; this raises
            check_schema_width(row.reshape(1, -1), self._width, "row",
                               context=f"dataset {self.pool.encoder.schema.name!r}")
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._queue.append((row, desired, future))
        self.requests += 1
        if self._drain_handle is None:
            self._drain_handle = loop.call_later(self.coalesce_window, self._drain)
        if len(self._queue) == self.max_batch:
            self._drain_handle.cancel()
            self._drain_handle = loop.call_soon(self._drain)
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:  # not the builtin before Python 3.11
            raise TimeoutError(
                f"request was not resolved within {timeout}s: its "
                f"coalesced batch has not flushed yet (window "
                f"{self.coalesce_window}s) — raise the timeout or shrink "
                f"the coalesce window") from None

    async def explain_many(self, rows, desired=None):
        """Explain many rows concurrently through the coalescing front.

        ``desired`` is None, one class for every row, or one entry per
        row; a length mismatch raises ``ValueError`` before any request
        is queued.
        """
        if desired is None or np.ndim(desired) == 0:
            specs = [desired] * len(rows)
        else:
            specs = list(desired)
            if len(specs) != len(rows):
                raise ValueError(
                    f"desired ({len(specs)}) and rows ({len(rows)}) row "
                    f"counts differ")
        return await asyncio.gather(
            *(self.explain(row, spec) for row, spec in zip(rows, specs)))

    def _drain(self):
        """Answer every live queued request with one pool flush, on the loop thread."""
        if self._drain_handle is not None:
            self._drain_handle.cancel()  # a no-op when it is the callback running now
            self._drain_handle = None
        # a request whose awaiter timed out (its future is cancelled)
        # leaves the batch, so its row is never computed
        batch = [entry for entry in self._queue if not entry[2].done()]
        self._queue = []
        if not batch:
            return
        try:
            rows = np.stack([entry[0] for entry in batch])
            finite = np.isfinite(rows).all(axis=1)
            if not finite.all():  # a non-finite row fails its own request only
                for entry in [e for e, ok in zip(batch, finite.tolist()) if not ok]:
                    _fail([entry], SchemaMismatchError("row contains NaN or infinite values"))
                batch = [entry for entry, ok in zip(batch, finite.tolist()) if ok]
                rows = rows[finite]
                if not batch:
                    return
            results = self.pool.flush_rows(rows, [entry[1] for entry in batch])
        except Exception as error:
            # whatever broke, every request of the batch hears of it
            _fail(batch, error)
            return
        self.flushes += 1
        self.rows_coalesced += len(batch)
        for (_row, _spec, future), result in zip(batch, results):
            future.set_result(result)

    async def drain(self):
        """Flush any queued requests now (don't wait out the window)."""
        self._drain()

    @property
    def stats(self):
        """Front counters plus the pool's per-replica aggregation."""
        counters = {
            "requests": self.requests,
            "flushes": self.flushes,
            "rows_coalesced": self.rows_coalesced,
            "mean_batch_size": (
                self.rows_coalesced / self.flushes if self.flushes else 0.0),
            "queued": len(self._queue),
        }
        return {"front": counters, "pool": self.pool.stats()}

    async def aclose(self):
        """Flush queued requests; later :meth:`explain` calls raise ``RuntimeError``."""
        self._closed = True
        self._drain()


def _fail(entries, error):
    """Resolve every still-pending future of queued ``entries`` with ``error``."""
    for _row, _spec, future in entries:
        # a timed-out awaiter cancelled its future; skip it
        if not future.done():
            future.set_exception(error)
