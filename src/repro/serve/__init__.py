"""Persistent explanation serving: artifact store + warm-start service.

Turns the one-shot paper pipeline (train -> explain -> exit) into a
servable system:

* :mod:`repro.serve.pipeline` -- the shared build/train code both the
  experiment harness and the serving path use (``train_pipeline``).
* :mod:`repro.serve.persist` -- the shared :class:`Persistable`
  state/fingerprint contract every storable model family implements,
  and the one :func:`fingerprint_state` hashing recipe behind it.
* :mod:`repro.serve.store` -- :class:`ArtifactStore`, versioned on-disk
  persistence of trained pipelines with fingerprinted manifests, plus
  one ``save_overlay`` / ``load_overlay`` surface over the fixed
  ``OVERLAY_KINDS`` table (density, causal, ensemble) for the model
  state persisted next to them.
* :mod:`repro.serve.service` -- :class:`ExplanationService`, warm-start
  batch serving with an LRU result cache.
* :mod:`repro.serve.cache` -- the thread-safe LRU cache primitive.
* :mod:`repro.serve.scale` -- the horizontally scaled tier:
  :class:`WorkerPool` (N warm in-process replicas answering their shards
  in turn, one shared pipeline and engine runner) behind :class:`AsyncExplanationService` (asyncio
  request coalescing).
* :mod:`repro.serve.routing` -- consistent-hash request routing that
  keeps replica-local caches hot as the pool scales.
"""

from .cache import LRUResultCache
from .persist import Persistable, fingerprint_state
from .pipeline import (
    TrainedPipeline,
    load_bundle,
    pipeline_fingerprint,
    train_pipeline,
    train_shared_blackbox,
)
from .routing import ConsistentHashRing, request_key
from .scale import AsyncExplanationService, WorkerPool
from .service import ExplanationService
from .store import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    ArtifactStore,
    StaleArtifactError,
)

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "AsyncExplanationService",
    "ConsistentHashRing",
    "ExplanationService",
    "LRUResultCache",
    "Persistable",
    "StaleArtifactError",
    "TrainedPipeline",
    "WorkerPool",
    "fingerprint_state",
    "load_bundle",
    "pipeline_fingerprint",
    "request_key",
    "train_pipeline",
    "train_shared_blackbox",
]
