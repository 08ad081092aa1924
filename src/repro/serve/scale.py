"""Horizontally scaled serving: worker pool + coalescing async front.

``ExplanationService`` is one warm process; this module turns it into a
fleet.  Two pieces compose:

* :class:`WorkerPool` — N warm replicas over ONE shared trained
  pipeline.  The leader replica warm-starts from the
  :class:`~repro.serve.store.ArtifactStore` through the standard
  ``warm_start(overlays={...})`` contract; siblings wrap the same
  pipeline object and adopt the leader's compiled execution state
  (runner with its plan memo, core strategies) — so the pool compiles
  ONE plan per served strategy, not N.  The replicas run in-process on
  the pool's dispatch threads and hold one copy of every model array.
  Requests shard across replicas by
  :class:`~repro.serve.routing.ConsistentHashRing` over the composite
  cache fingerprint plus row bytes, so each replica's LRU cache owns a
  stable slice of the key space and aggregate cache capacity grows with
  the replica count.
* :class:`AsyncExplanationService` — an asyncio front for single-row
  traffic.  ``await front.explain(row)`` enqueues the request, coalesces
  arrivals for ``coalesce_window`` seconds (or until ``max_batch``),
  then drains the batch through the pool's submit/flush micro-batcher
  off the event loop; every request resolves as a future.  A request
  that is not resolved within its ``timeout`` raises the same
  :class:`~repro.serve.service.PendingTicketError` a never-flushed
  synchronous ticket raises.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..core.result import CFBatchResult
from ..utils.validation import check_desired, resolve_desired
from .routing import ConsistentHashRing, request_key
from .service import ExplanationService, PendingTicketError

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
        leader; siblings replicate the exact configuration and share the
        leader's hosted model objects.
    flush_kwargs:
        Keyword arguments for each replica's ``flush`` (e.g.
        ``{"n_candidates": 8}`` on the core path).
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
                f'backend={backend!r} was removed; replicas run on threads')
        if shared_weights:
            raise ValueError(
                "shared_weights=True was removed; replicas share one "
                "in-process copy of the weights")
        n_replicas = int(n_replicas)
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.n_replicas = n_replicas
        self._flush_kwargs = dict(flush_kwargs or {})

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
        self.replicas = [leader]
        for _ in range(1, n_replicas):
            sibling = ExplanationService(
                leader.pipeline,
                cache_size=cache_size,
                strategy=leader.strategy,
                density=leader.density,
                density_weight=density_weight,
                density_candidates=density_candidates,
                causal=leader.causal,
                ensemble=leader.ensemble,
                robust_quorum=robust_quorum,
            )
            sibling.adopt_execution_from(leader)
            self.replicas.append(sibling)
        # serializes each replica's submit/flush rounds: without it, two
        # concurrent flush_rows calls could interleave so one call's
        # flush captures the other's freshly submitted tickets and
        # returns before they resolve
        self._flush_locks = [threading.Lock() for _ in self.replicas]

        #: The pool's composite cache fingerprint (the routing key).
        self.fingerprint = leader.cache_fingerprint
        self._template = leader
        self.ring = ConsistentHashRing(range(n_replicas))
        self._executor = ThreadPoolExecutor(
            max_workers=n_replicas, thread_name_prefix="repro-pool")
        self._closed = False

    # -- routing -------------------------------------------------------------
    def route(self, row, desired=None):
        """Replica index owning one ``(row, desired)`` request."""
        return self.ring.node_for(request_key(self.fingerprint, row, desired))

    def _assign(self, rows, desired):
        """Per-row replica assignment for a resolved batch."""
        return np.array(
            [self.route(rows[i], int(desired[i])) for i in range(len(rows))],
            dtype=int,
        )

    def _resolve(self, rows, desired):
        rows = self._template._check_rows(rows)
        return rows, resolve_desired(self._template.explainer.blackbox, rows, desired)

    def _dispatch(self, work, rows, desired):
        """Run ``work(replica, rows, desired)`` on every routed shard at once.

        Returns ``(indices, answer)`` per non-empty shard, in ring order.
        """
        assignment = self._assign(rows, desired)
        futures = []
        for node in self.ring.nodes:
            indices = np.flatnonzero(assignment == node)
            if len(indices):
                futures.append((indices, self._executor.submit(
                    work, node, rows[indices], desired[indices])))
        return [(indices, future.result()) for indices, future in futures]

    # -- batch serving -------------------------------------------------------
    def explain_batch(self, rows, desired=None):
        """Explain many rows across the pool; returns a :class:`CFBatchResult`.

        The batch is partitioned by consistent-hash routing, every
        shard dispatches to its replica concurrently, and the results
        reassemble in request order.
        """
        rows, desired = self._resolve(rows, desired)
        n_rows = len(rows)
        x_cf = np.empty(rows.shape)
        predicted = np.empty(n_rows, dtype=int)
        feasible = np.empty(n_rows, dtype=bool)
        shards = self._dispatch(
            lambda node, part, targets: self.replicas[node].explain_batch(part, targets),
            rows, desired)
        for indices, part in shards:
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
            encoder=self._template.encoder,
        )

    # -- micro-batched single-row serving -------------------------------------
    def flush_rows(self, rows, desired=None):
        """Answer coalesced single-row requests through submit/flush.

        The async front's drain path: each replica receives its routed
        shard as one submit storm plus ONE flush, all replicas work
        concurrently, and the per-request result dicts come back in
        request order.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim == 1:
            rows = rows.reshape(1, -1)
        rows, desired = self._resolve(rows, desired)
        results = [None] * len(rows)
        for indices, answers in self._dispatch(self._flush_shard, rows, desired):
            for position, result in zip(indices, answers):
                results[position] = result
        return results

    def _flush_shard(self, node, rows, desired):
        """One replica's submit storm plus ONE flush; its ticket results."""
        service = self.replicas[node]
        with self._flush_locks[node]:
            tickets = [
                service.submit(row, int(target))
                for row, target in zip(rows, desired)
            ]
            service.flush(**self._flush_kwargs)
        return [ticket.result() for ticket in tickets]

    # -- introspection --------------------------------------------------------
    def stats(self):
        """Pool-level aggregation of every replica's serving counters.

        Returns ``{"per_replica": [...], "aggregate": {...}}``; each
        per-replica dict gains derived ``hit_rate`` and
        ``mean_batch_size`` fields for dashboards (and the serve-demo
        CLI table).
        """
        per_replica = []
        for index, replica in enumerate(self.replicas):
            counters = dict(replica.stats)
            lookups = counters["cache_hits"] + counters["cache_misses"]
            counters["replica"] = index
            # rows_served counts batch-path rows, rows_coalesced counts
            # flush-path rows; a request went through exactly one of them
            counters["requests"] = (
                counters["rows_served"] + counters["rows_coalesced"])
            counters["hit_rate"] = (
                counters["cache_hits"] / lookups if lookups else 0.0)
            counters["mean_batch_size"] = (
                counters["rows_coalesced"] / counters["flushes"]
                if counters["flushes"] else 0.0)
            per_replica.append(counters)

        total_rows = sum(c["rows_served"] for c in per_replica)
        total_coalesced = sum(c["rows_coalesced"] for c in per_replica)
        total_hits = sum(c["cache_hits"] for c in per_replica)
        total_misses = sum(c["cache_misses"] for c in per_replica)
        total_flushes = sum(c["flushes"] for c in per_replica)
        lookups = total_hits + total_misses
        aggregate = {
            "replicas": self.n_replicas,
            "requests": total_rows + total_coalesced,
            "rows_served": total_rows,
            "rows_coalesced": total_coalesced,
            "flushes": total_flushes,
            "cache_hits": total_hits,
            "cache_misses": total_misses,
            "hit_rate": total_hits / lookups if lookups else 0.0,
            "mean_batch_size": (
                total_coalesced / total_flushes if total_flushes else 0.0),
        }
        return {"per_replica": per_replica, "aggregate": aggregate}

    # -- lifecycle -----------------------------------------------------------
    def close(self):
        """Shut down the dispatch executor."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class AsyncExplanationService:
    """Asyncio front coalescing single-row requests into pool flushes.

    Parameters
    ----------
    pool:
        The :class:`WorkerPool` (or any object with ``flush_rows`` and
        ``stats``) answering the coalesced batches.
    coalesce_window:
        Seconds to hold the first request of a batch while more arrive.
    max_batch:
        Drain immediately once this many requests are queued.
    """

    def __init__(self, pool, coalesce_window=0.002, max_batch=256):
        coalesce_window = float(coalesce_window)
        if coalesce_window < 0:
            raise ValueError(
                f"coalesce_window must be >= 0, got {coalesce_window}")
        max_batch = int(max_batch)
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.pool = pool
        self.coalesce_window = coalesce_window
        self.max_batch = max_batch
        self._queue = []
        self._drain_task = None
        self._wake = None
        self.requests = 0
        self.flushes = 0
        self.rows_coalesced = 0

    async def explain(self, row, desired=None, timeout=None):
        """Explain one row; resolves when its coalesced batch flushes.

        Returns the ticket-result dict (``x_cf``, ``desired``,
        ``predicted``, ``valid``, ``feasible``, ...).  With ``timeout``,
        a request still pending after that many seconds raises
        :class:`PendingTicketError` — the asynchronous face of reading a
        never-flushed ticket.  A ``desired`` class other than None, 0 or
        1 raises ``ValueError`` here, before the request joins a batch.
        """
        check_desired(desired)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        row = np.asarray(row, dtype=np.float64).reshape(-1)
        self._queue.append((row, desired, future))
        self.requests += 1
        if self._drain_task is None or self._drain_task.done():
            self._wake = asyncio.Event()
            self._drain_task = loop.create_task(
                self._drain_after(self.coalesce_window, self._wake))
        if len(self._queue) >= self.max_batch:
            self._wake.set()
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            raise PendingTicketError(
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

    async def _drain_after(self, delay, wake):
        if delay > 0:
            try:
                await asyncio.wait_for(wake.wait(), delay)
            except asyncio.TimeoutError:
                pass
        # swap the queue and clear the task slot BEFORE the blocking
        # dispatch, so requests arriving mid-flush arm the next drain
        batch, self._queue = self._queue, []
        self._drain_task = None
        if not batch:
            return
        rows = np.stack([entry[0] for entry in batch])
        desired = [entry[1] for entry in batch]
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                None, self.pool.flush_rows, rows, desired)
        except Exception as error:
            for _row, _spec, future in batch:
                if not future.done():
                    future.set_exception(error)
            return
        self.flushes += 1
        self.rows_coalesced += len(batch)
        for (_row, _spec, future), result in zip(batch, results):
            # a timed-out awaiter cancelled its future; skip it
            if not future.done():
                future.set_result(result)

    async def drain(self):
        """Flush any queued requests now (don't wait out the window)."""
        task = self._drain_task
        if task is not None and not task.done():
            self._wake.set()
            await task

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
        """Flush stragglers and fail anything left unresolved."""
        await self.drain()
        for _row, _spec, future in self._queue:
            if not future.done():
                future.set_exception(PendingTicketError(
                    "async front closed before this request's batch "
                    "was flushed"))
        self._queue = []
