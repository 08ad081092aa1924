"""Serving quickstart: train once, persist, warm-start, answer 1k rows.

Walks the full serving loop the docs describe (docs/serving.md):

1. train a pipeline cold (black-box + CF-VAE),
2. persist it into an :class:`repro.serve.ArtifactStore`,
3. warm-start an :class:`repro.serve.ExplanationService` from disk, as a
   fresh serving process would,
4. answer a 1,000-row batch, then answer it again from the result cache,
5. coalesce a handful of concurrent single-row requests into one
   vectorized sweep through the asyncio front over a worker pool.

Run with::

    PYTHONPATH=src python examples/serve_quickstart.py
"""

import asyncio
import tempfile
import time

import numpy as np

from repro.core import fast_config
from repro.serve import (
    ArtifactStore,
    AsyncExplanationService,
    ExplanationService,
    WorkerPool,
    train_pipeline,
)


async def coalesce(pool, rows):
    """Send ``rows`` as concurrent single-row requests; their answers and the front's counters."""
    front = AsyncExplanationService(pool, coalesce_window=0.05)
    answers = await front.explain_many(rows)
    await front.aclose()
    return answers, front.stats["front"]


def main():
    rng = np.random.default_rng(0)

    # 1. Cold start: the full train path (this is the cost the artifact
    #    store makes a one-time cost instead of a per-process cost).
    start = time.perf_counter()
    pipeline = train_pipeline("adult", scale="fast", seed=0, config=fast_config())
    cold_seconds = time.perf_counter() - start
    print(f"cold start (train blackbox + CF-VAE): {cold_seconds:6.2f}s "
          f"(blackbox accuracy {pipeline.blackbox_accuracy:.3f})")

    with tempfile.TemporaryDirectory() as tmp:
        # 2. Persist.
        store = ArtifactStore(tmp)
        store.save(pipeline, name="quickstart")
        print(f"saved artifact {store.artifact_dir('quickstart')}")

        # 3. Warm start, as a fresh process would.
        start = time.perf_counter()
        service = ExplanationService.warm_start(store, "quickstart")
        warm_seconds = time.perf_counter() - start
        print(f"warm start (load + verify artifact):  {warm_seconds:6.4f}s "
              f"({cold_seconds / warm_seconds:,.0f}x faster than cold)")

        # 4. A 1k-row batch: sample encoded rows from the dataset.
        encoded = pipeline.bundle.encoded
        batch = encoded[rng.integers(0, len(encoded), size=1000)]

        start = time.perf_counter()
        result = service.explain_batch(batch)
        batch_seconds = time.perf_counter() - start
        print(f"explain_batch of {len(batch)} rows:        {batch_seconds:6.4f}s "
              f"(validity {result.validity_rate:.2f}, "
              f"feasibility {result.feasibility_rate:.2f})")

        start = time.perf_counter()
        service.explain_batch(batch)
        cached_seconds = time.perf_counter() - start
        print(f"same batch from the LRU cache:       {cached_seconds:6.4f}s")

        stats = service.stats
        print(f"service stats: {stats['rows_served']} rows served, "
              f"{stats['cache_hits']} cache hits")

        # 5. Single-row traffic: the asyncio front coalesces concurrent
        #    requests into one pool flush (a 12-candidate latent sweep).
        with WorkerPool(store, "quickstart", n_replicas=1,
                        flush_kwargs={"n_candidates": 12}) as pool:
            answers, front = asyncio.run(coalesce(pool, batch[:8]))
        usable = sum(a["valid"] and a["feasible"] for a in answers)
        print(f"coalesced {front['requests']} single-row requests into "
              f"{front['flushes']} sweep(s); {usable}/{len(answers)} valid & feasible")


if __name__ == "__main__":
    main()
