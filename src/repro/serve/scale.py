"""Horizontally scaled serving: worker pool + coalescing async front.

``ExplanationService`` is one warm process; this module turns it into a
fleet.  Three pieces compose:

* :class:`WorkerPool` — N warm replicas over ONE shared trained
  pipeline.  The leader replica warm-starts from the
  :class:`~repro.serve.store.ArtifactStore` through the standard
  ``warm_start(overlays={...})`` contract; siblings wrap the same
  pipeline object and adopt the leader's compiled execution state
  (runner with its plan memo, core strategies) — so the pool compiles
  ONE plan per served strategy, not N.  With ``shared_weights=True``
  every model array lives in one
  :class:`~repro.serve.shm.SharedWeights` segment and replicas hold
  zero-copy views.  Requests shard across replicas by
  :class:`~repro.serve.routing.ConsistentHashRing` over the composite
  cache fingerprint plus row bytes, so each replica's LRU cache owns a
  stable slice of the key space and aggregate cache capacity grows with
  the replica count.
* backend seam — ``backend="thread"`` (default) drives each replica's
  service on a pool thread in-process; ``backend="process"`` forks one
  worker process per replica (weights stay shared through the shm
  segment) and speaks to it over a pipe.  Both backends answer through
  the same replica protocol, so everything above the seam is identical.
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
from .shm import SharedWeights, attach_pipeline, pipeline_weight_arrays

__all__ = ["AsyncExplanationService", "WorkerPool"]


class _ThreadReplica:
    """One replica served in-process on pool threads."""

    def __init__(self, service, flush_kwargs):
        self.service = service
        self._flush_kwargs = flush_kwargs
        # serializes submit/flush rounds: without it, two concurrent
        # flush_rows calls could interleave so one call's flush captures
        # the other's freshly submitted tickets and returns before they
        # resolve
        self._lock = threading.Lock()

    def explain_batch(self, rows, desired):
        result = self.service.explain_batch(rows, desired)
        return result.x_cf, result.predicted, result.feasible

    def flush_rows(self, rows, desired):
        with self._lock:
            tickets = [
                self.service.submit(row, int(target))
                for row, target in zip(rows, desired)
            ]
            self.service.flush(**self._flush_kwargs)
        return [ticket.result() for ticket in tickets]

    def stats(self):
        return self.service.stats

    def close(self):
        pass


def _replica_worker(connection, service, flush_kwargs):
    """Request loop of one forked replica process."""
    import traceback

    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        op = message[0]
        if op == "close":
            break
        try:
            if op == "explain":
                result = service.explain_batch(message[1], message[2])
                payload = (result.x_cf, result.predicted, result.feasible)
            elif op == "flush":
                tickets = [
                    service.submit(row, int(target))
                    for row, target in zip(message[1], message[2])
                ]
                service.flush(**flush_kwargs)
                payload = [ticket.result() for ticket in tickets]
            elif op == "stats":
                payload = service.stats
            else:
                raise ValueError(f"unknown replica op {op!r}")
            connection.send(("ok", payload))
        except Exception:
            connection.send(("error", traceback.format_exc()))
    connection.close()


class _ProcessReplica:
    """One replica served by a forked worker process over a pipe.

    Forked from the fully warm parent, so the replica starts serving
    without reloading anything; the shared-memory weight segment keeps
    the model arrays physically shared across address spaces.
    """

    def __init__(self, context, service, flush_kwargs):
        self._parent_conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_replica_worker,
            args=(child_conn, service, flush_kwargs),
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._lock = threading.Lock()

    def _call(self, *message):
        with self._lock:
            self._parent_conn.send(message)
            status, payload = self._parent_conn.recv()
        if status == "error":
            raise RuntimeError(f"replica process failed:\n{payload}")
        return payload

    def explain_batch(self, rows, desired):
        return self._call("explain", rows, desired)

    def flush_rows(self, rows, desired):
        return self._call("flush", rows, desired)

    def stats(self):
        return self._call("stats")

    def close(self):
        try:
            with self._lock:
                self._parent_conn.send(("close",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._parent_conn.close()


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
    backend:
        ``"thread"`` (default) or ``"process"`` — the one seam between
        in-process replicas and forked worker processes.
    overlays, strategy, cache_size, density_weight, density_candidates,
    robust_quorum:
        Forwarded to :meth:`ExplanationService.warm_start` for the
        leader; siblings replicate the exact configuration and share the
        leader's hosted model objects.
    shared_weights:
        Publish every model array (black-box, CF-VAE, overlay arrays)
        into one shared-memory segment and bind all replicas to
        zero-copy views (default).  ``False`` keeps plain per-pipeline
        arrays (still one copy on the thread backend, copy-on-write on
        the process backend).
    ring_points:
        Virtual nodes per replica on the hash ring.
    flush_kwargs:
        Keyword arguments for each replica's ``flush`` (e.g.
        ``{"n_candidates": 8}`` on the core path).
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
        shared_weights=True,
        ring_points=64,
        flush_kwargs=None,
    ):
        if backend not in ("thread", "process"):
            raise ValueError(
                f'backend must be "thread" or "process", got {backend!r}')
        n_replicas = int(n_replicas)
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.backend = backend
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
        self.shared = None
        if shared_weights:
            hosted = {
                "density": leader.density,
                "causal": leader.causal,
                "ensemble": leader.ensemble,
            }
            self.shared = SharedWeights.publish(
                pipeline_weight_arrays(leader.pipeline, hosted))
            attach_pipeline(leader.pipeline, self.shared)

        services = [leader]
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
            services.append(sibling)

        #: The pool's composite cache fingerprint (the routing key).
        self.fingerprint = leader.cache_fingerprint
        self._template = leader

        if backend == "thread":
            self.replicas = [
                _ThreadReplica(service, self._flush_kwargs)
                for service in services
            ]
        else:
            import multiprocessing

            if "fork" not in multiprocessing.get_all_start_methods():
                raise RuntimeError(
                    'backend="process" needs the fork start method (the '
                    "forked replica inherits the warm pipeline); use "
                    'backend="thread" on this platform')
            context = multiprocessing.get_context("fork")
            self.replicas = [
                _ProcessReplica(context, service, self._flush_kwargs)
                for service in services
            ]
        self.ring = ConsistentHashRing(range(n_replicas), points=ring_points)
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

    # -- batch serving -------------------------------------------------------
    def explain_batch(self, rows, desired=None):
        """Explain many rows across the pool; returns a :class:`CFBatchResult`.

        The batch is partitioned by consistent-hash routing, every
        shard dispatches to its replica concurrently, and the results
        reassemble in request order.
        """
        rows, desired = self._resolve(rows, desired)
        assignment = self._assign(rows, desired)

        n_rows, width = rows.shape
        x_cf = np.empty((n_rows, width))
        predicted = np.empty(n_rows, dtype=int)
        feasible = np.empty(n_rows, dtype=bool)

        futures = {}
        for node in self.ring.nodes:
            indices = np.flatnonzero(assignment == node)
            if len(indices):
                futures[node] = (
                    indices,
                    self._executor.submit(
                        self.replicas[node].explain_batch,
                        rows[indices], desired[indices]),
                )
        for indices, future in futures.values():
            part_cf, part_predicted, part_feasible = future.result()
            x_cf[indices] = part_cf
            predicted[indices] = part_predicted
            feasible[indices] = part_feasible

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
        assignment = self._assign(rows, desired)

        results = [None] * len(rows)
        futures = {}
        for node in self.ring.nodes:
            indices = np.flatnonzero(assignment == node)
            if len(indices):
                futures[node] = (
                    indices,
                    self._executor.submit(
                        self.replicas[node].flush_rows,
                        rows[indices], desired[indices]),
                )
        for indices, future in futures.values():
            for position, result in zip(indices, future.result()):
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
        per_replica = []
        for index, replica in enumerate(self.replicas):
            counters = dict(replica.stats())
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
            "backend": self.backend,
            "requests": total_rows + total_coalesced,
            "rows_served": total_rows,
            "rows_coalesced": total_coalesced,
            "flushes": total_flushes,
            "cache_hits": total_hits,
            "cache_misses": total_misses,
            "hit_rate": total_hits / lookups if lookups else 0.0,
            "mean_batch_size": (
                total_coalesced / total_flushes if total_flushes else 0.0),
            "shared_weight_bytes": (
                self.shared.nbytes if self.shared is not None else 0),
        }
        return {"per_replica": per_replica, "aggregate": aggregate}

    # -- lifecycle -----------------------------------------------------------
    def close(self):
        """Shut down replicas, the dispatch executor and the shm segment."""
        if self._closed:
            return
        self._closed = True
        for replica in self.replicas:
            replica.close()
        self._executor.shutdown(wait=True)
        if self.shared is not None:
            self.shared.close()

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
        """Explain many rows concurrently through the coalescing front."""
        specs = [None] * len(rows) if desired is None else list(desired)
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
