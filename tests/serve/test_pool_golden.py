"""Golden digests of a two-replica pool's coalesced single-row answers.

A warm ``WorkerPool`` (2 replicas, ``flush_kwargs={"n_candidates": 8}``)
is rebuilt from a temp store holding the tiny Adult pipeline plus a k-NN
density and an SCM causal overlay.  Its ``flush_rows`` answers and the
answers of the asyncio front over it are hashed over every result-dict
key.  The digests were recorded while each routed shard still went
through per-row ``submit`` plus one ``flush``; every later change to the
pool's drain path must reproduce them bit for bit.

They hash float64 bytes, so they hold for one numpy/BLAS build: a
different BLAS may round the VAE's matmuls differently in the last bit.
"""

import asyncio
import hashlib

import numpy as np
import pytest

from repro.causal import fit_causal
from repro.density import fit_class_density
from repro.serve import ArtifactStore, AsyncExplanationService, WorkerPool

#: sha256 over every key of one flush_rows of 64 rows
POOL_DIGEST = "49efb2ff0505f42af54f1bf6212fd6abd655eeac9f53fca93bc43b67ffcd7d6d"
#: the same over 64 async requests drained as two batches of 32
ASYNC_DIGEST = "91d7002b11e67f2d20bc545312c127da3c31c0fd4594bc0675c9f7b774ee0b8a"

#: result-dict keys and the Python type of each value (x_cf: a row view)
KEY_TYPES = {
    "x_cf": np.ndarray, "desired": int, "predicted": int, "valid": bool,
    "feasible": bool, "chosen": int, "n_usable": int, "n_valid": int,
}


def _digest(answers):
    for answer in answers:
        assert {key: type(value) for key, value in answer.items()} == KEY_TYPES
    sha = hashlib.sha256()
    sha.update(np.stack([a["x_cf"] for a in answers]).astype(np.float64).tobytes())
    for key in list(KEY_TYPES)[1:]:
        sha.update(np.array([a[key] for a in answers], dtype=np.int64).tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def pool_store(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("pool-golden"))
    store.save(tiny_pipeline, name="p")
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.encoder.schema.desired_class)
    store.save_overlay("p", "density",
                       fit_class_density("knn", x_train, y_train, desired_class))
    store.save_overlay("p", "causal",
                       fit_causal("scm", tiny_pipeline.encoder, x_train, y_train))
    return store


@pytest.fixture(scope="module")
def pool_rows(tiny_pipeline):
    x_train, _ = tiny_pipeline.bundle.split("train")
    x_test, _ = tiny_pipeline.bundle.split("test")
    return np.concatenate([x_test, x_train])[:64]


#: per-request targets: mostly "flip the prediction", every third class 1
DESIRED = [1 if i % 3 == 0 else None for i in range(64)]


def _pool(store, n_replicas=2):
    return WorkerPool(store, "p", n_replicas=n_replicas,
                      overlays={"density": "store", "causal": "store"},
                      flush_kwargs={"n_candidates": 8})


def test_pool_flush_rows_match_golden_digest(pool_store, pool_rows):
    with _pool(pool_store) as pool:
        answers = pool.flush_rows(pool_rows, DESIRED)
    assert _digest(answers) == POOL_DIGEST


def test_async_front_answers_match_golden_digest(pool_store, pool_rows):
    async def scenario(pool):
        front = AsyncExplanationService(pool, coalesce_window=30.0, max_batch=32)
        answers = []
        for start in (0, 32):  # two batches of 32, drained by max_batch
            answers += await asyncio.wait_for(front.explain_many(
                pool_rows[start:start + 32], DESIRED[start:start + 32]), 30.0)
        assert front.stats["front"]["flushes"] == 2
        await front.aclose()
        return answers

    with _pool(pool_store) as pool:
        answers = asyncio.run(scenario(pool))
    assert _digest(answers) == ASYNC_DIGEST


@pytest.mark.parametrize("n_replicas", [1, 2, 3, 4])
def test_block_assignment_equals_per_row_route(pool_store, pool_rows, n_replicas):
    with WorkerPool(pool_store, "p", n_replicas=n_replicas) as pool:
        for target in (0, 1):
            desired = np.full(len(pool_rows), target)
            expected = [pool.route(row, target) for row in pool_rows]
            assert pool._assign(pool_rows, desired).tolist() == expected
