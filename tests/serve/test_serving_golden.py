"""Golden digests of a warm knn + scm service's answers.

A warm service is rebuilt from a temp store holding the tiny Adult
pipeline plus a k-NN density and an SCM causal overlay (the e2ebench
``serve_stream`` configuration at test size).  The digests below were
recorded before the single-row serving path was tuned; every later
change to that path must reproduce them bit for bit.

They hash float64 bytes, so they hold for one numpy/BLAS build: a
different BLAS may round the VAE's matmuls differently in the last bit.
"""

import hashlib

import numpy as np
import pytest

from repro.causal import fit_causal
from repro.density import fit_class_density
from repro.serve import ArtifactStore, ExplanationService, WorkerPool

#: sha256 over (x_cf, valid, feasible) of 64 single-row explain_batch calls
SINGLE_ROW_DIGEST = "9a1c05ed7b2589d73571afc2eb9b1837fce0f1f95f8db0219a43744c5825f2c9"
#: the same over one 1-replica WorkerPool flush_rows (n_candidates=8) of 32 rows
FLUSH_DIGEST = "63e336c4382ca510fcd7a41b721f8b5685bf6e53844f00bf877ac216b33c20d8"


def _digest(x_cf, valid, feasible):
    sha = hashlib.sha256()
    for array, dtype in ((x_cf, np.float64), (valid, np.bool_), (feasible, np.bool_)):
        sha.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def golden_store(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("golden"))
    store.save(tiny_pipeline, name="g")
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.encoder.schema.desired_class)
    store.save_overlay("g", "density",
                       fit_class_density("knn", x_train, y_train, desired_class))
    store.save_overlay("g", "causal",
                       fit_causal("scm", tiny_pipeline.encoder, x_train, y_train))
    return store


@pytest.fixture(scope="module")
def golden_rows(tiny_pipeline):
    x_train, _ = tiny_pipeline.bundle.split("train")
    x_test, _ = tiny_pipeline.bundle.split("test")
    return np.concatenate([x_test, x_train])[:96]


def _warm_service(store):
    return ExplanationService.warm_start(
        store, "g", overlays={"density": "store", "causal": "store"})


def test_single_row_answers_match_golden_digest(golden_store, golden_rows,
                                               tiny_pipeline):
    service = _warm_service(golden_store)
    desired = np.array([int(tiny_pipeline.encoder.schema.desired_class)])
    answers = [service.explain_batch(golden_rows[i:i + 1], desired) for i in range(64)]
    x_cf = np.concatenate([a.x_cf for a in answers])
    valid = np.concatenate([a.valid for a in answers])
    feasible = np.concatenate([a.feasible for a in answers])
    assert _digest(x_cf, valid, feasible) == SINGLE_ROW_DIGEST


def test_flush_answers_match_golden_digest(golden_store, golden_rows):
    with WorkerPool(golden_store, "g", n_replicas=1,
                    overlays={"density": "store", "causal": "store"},
                    flush_kwargs={"n_candidates": 8}) as pool:
        answers = pool.flush_rows(golden_rows[64:96])
    x_cf = np.stack([a["x_cf"] for a in answers])
    valid = np.array([a["valid"] for a in answers])
    feasible = np.array([a["feasible"] for a in answers])
    assert _digest(x_cf, valid, feasible) == FLUSH_DIGEST
