"""Randomized schema-fuzz: malformed requests must raise SchemaMismatchError.

Seeded ``np.random.Generator`` fuzzing of the batch surfaces —
``EngineRunner.run``, ``ExplanationService.explain_batch`` (plain and
ensemble-hosting) and ``CausalModel.repair_batch`` — with wrong-width,
wrong-dtype and NaN/inf-bearing inputs.  Every case must fail with
:class:`SchemaMismatchError` (the schema-contract error, a ``ValueError``
subclass), never with a raw numpy broadcasting/conversion message from
deep inside a matmul.  A second fuzzer corrupts persisted ensemble
artifacts on disk and pins every failure to the store's
``ArtifactError`` family.
"""

import json

import numpy as np
import pytest

from repro.causal import ScmCausalModel
from repro.engine import CoreCFStrategy, EngineRunner
from repro.serve import ArtifactError, ArtifactStore, ExplanationService
from repro.utils.validation import SchemaMismatchError

N_TRIALS = 25
SEED = 20260728


def corrupt_rows(rng, width):
    """One randomized malformed request matrix per call."""
    n = int(rng.integers(1, 7))
    mode = rng.choice(["narrow", "wide", "object", "strings", "nan", "inf"])
    if mode == "narrow":
        wrong = int(rng.integers(1, width))
        return rng.random((n, wrong)), "narrow"
    if mode == "wide":
        wrong = int(rng.integers(width + 1, width * 2 + 2))
        return rng.random((n, wrong)), "wide"
    if mode == "object":
        rows = rng.random((n, width)).astype(object)
        rows[rng.integers(0, n), rng.integers(0, width)] = {"not": "a number"}
        return rows, "object"
    if mode == "strings":
        rows = rng.random((n, width)).astype(object)
        rows[rng.integers(0, n), rng.integers(0, width)] = "mithril"
        return rows, "strings"
    rows = rng.random((n, width))
    bad = np.nan if mode == "nan" else np.inf
    rows[rng.integers(0, n), rng.integers(0, width)] = bad
    return rows, mode


@pytest.fixture(scope="module")
def surfaces(tiny_pipeline):
    runner = EngineRunner(tiny_pipeline.encoder, tiny_pipeline.blackbox)
    strategy = CoreCFStrategy(tiny_pipeline.explainer, n_candidates=1)
    service = ExplanationService(tiny_pipeline)
    causal = ScmCausalModel(tiny_pipeline.encoder)
    return tiny_pipeline, runner, strategy, service, causal


def test_engine_runner_rejects_fuzzed_rows(surfaces):
    pipeline, runner, strategy, _, _ = surfaces
    rng = np.random.default_rng(SEED)
    for _ in range(N_TRIALS):
        rows, mode = corrupt_rows(rng, pipeline.encoder.n_encoded)
        with pytest.raises(SchemaMismatchError):
            runner.run(strategy, rows)


def test_service_explain_batch_rejects_fuzzed_rows(surfaces):
    pipeline, _, _, service, _ = surfaces
    rng = np.random.default_rng(SEED + 1)
    for _ in range(N_TRIALS):
        rows, mode = corrupt_rows(rng, pipeline.encoder.n_encoded)
        with pytest.raises(SchemaMismatchError):
            service.explain_batch(rows)


def test_repair_batch_rejects_fuzzed_inputs(surfaces):
    pipeline, _, _, _, causal = surfaces
    width = pipeline.encoder.n_encoded
    x_good = pipeline.bundle.encoded[:3]
    sweep_good = np.repeat(x_good[:, None, :], 2, axis=1)
    rng = np.random.default_rng(SEED + 2)
    for _ in range(N_TRIALS):
        rows, mode = corrupt_rows(rng, width)
        # corrupted inputs with well-formed candidates
        with pytest.raises(SchemaMismatchError):
            causal.repair_batch(rows, np.repeat(
                np.zeros((len(rows), 1, width)), 2, axis=1))
        # well-formed inputs with the corruption moved into the sweep
        bad_sweep = np.asarray(rows, dtype=object)[:, None, :]
        with pytest.raises((SchemaMismatchError, ValueError)):
            causal.repair_batch(x_good[:len(rows)], bad_sweep)
    # targeted sweep corruption at fixed shapes: NaN cells and wrong width
    nan_sweep = sweep_good.copy()
    nan_sweep[1, 0, 2] = np.nan
    with pytest.raises(SchemaMismatchError):
        causal.repair_batch(x_good, nan_sweep)
    with pytest.raises(SchemaMismatchError):
        causal.repair_batch(x_good, sweep_good[:, :, :-1])


def test_wrong_ndim_stays_a_plain_shape_error(surfaces):
    # an API-shape mistake (1-D row, wrong tensor rank) is NOT schema
    # drift: it raises ValueError but never SchemaMismatchError
    pipeline, _, _, service, causal = surfaces
    row_1d = pipeline.bundle.encoded[0]
    with pytest.raises(ValueError) as excinfo:
        service.explain_batch(row_1d)
    assert not isinstance(excinfo.value, SchemaMismatchError)
    x = pipeline.bundle.encoded[:3]
    with pytest.raises(ValueError) as excinfo:
        causal.repair_batch(x, x)  # 2-D where a 3-D sweep is required
    assert not isinstance(excinfo.value, SchemaMismatchError)


def test_robust_service_rejects_fuzzed_rows(surfaces):
    # the ensemble-hosting serving path validates before any K-model
    # scoring: the fused GEMM must never see a malformed batch
    from repro.models import train_ensemble

    pipeline, _, _, _, _ = surfaces
    x_train, y_train = pipeline.bundle.split("train")
    ensemble = train_ensemble(x_train, y_train, n_members=2, seed=0, epochs=1)
    service = ExplanationService(pipeline, ensemble=ensemble)
    rng = np.random.default_rng(SEED + 4)
    for _ in range(N_TRIALS):
        rows, mode = corrupt_rows(rng, pipeline.encoder.n_encoded)
        with pytest.raises(SchemaMismatchError):
            service.explain_batch(rows)


def corrupt_ensemble_artifact(rng, target):
    """Apply one randomized corruption to a saved ensemble overlay."""
    npz_path = target / "ensemble.npz"
    meta_path = target / "ensemble.json"
    mode = rng.choice(["npz_garbage", "npz_truncate", "npz_missing",
                       "meta_garbage", "meta_version", "meta_state"])
    if mode == "npz_garbage":
        npz_path.write_bytes(rng.bytes(int(rng.integers(1, 64))))
    elif mode == "npz_truncate":
        npz_path.write_bytes(npz_path.read_bytes()[: int(rng.integers(0, 40))])
    elif mode == "npz_missing":
        npz_path.unlink()
    elif mode == "meta_garbage":
        meta_path.write_text("{mithril" + "}" * int(rng.integers(0, 3)))
    elif mode == "meta_version":
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = int(rng.integers(100, 1000))
        meta_path.write_text(json.dumps(meta))
    else:
        meta = json.loads(meta_path.read_text())
        meta["state"]["seed"] = int(rng.integers(1000, 2000))
        meta_path.write_text(json.dumps(meta))
    return mode


def test_corrupted_ensemble_artifacts_fail_structured(surfaces, tmp_path):
    # every on-disk corruption surfaces as the store's error family
    # (StaleArtifactError included), never a raw numpy/zipfile/KeyError
    from repro.models import train_ensemble

    pipeline, _, _, _, _ = surfaces
    x_train, y_train = pipeline.bundle.split("train")
    ensemble = train_ensemble(x_train, y_train, n_members=2, seed=0, epochs=1)
    rng = np.random.default_rng(SEED + 5)
    for trial in range(N_TRIALS):
        store = ArtifactStore(tmp_path / f"fuzz{trial}")
        store.save(pipeline, name="tiny")
        store.save_overlay("tiny", "ensemble", ensemble)
        corrupt_ensemble_artifact(rng, store.artifact_dir("tiny"))
        with pytest.raises(ArtifactError):
            store.load_overlay("tiny", "ensemble")


def test_fuzz_never_mutates_service_state(surfaces):
    # a rejected request must not count as served traffic or poison caches
    pipeline, _, _, service, _ = surfaces
    rng = np.random.default_rng(SEED + 3)
    before = dict(service.stats)
    for _ in range(N_TRIALS):
        rows, _ = corrupt_rows(rng, pipeline.encoder.n_encoded)
        with pytest.raises(SchemaMismatchError):
            service.explain_batch(rows)
    assert dict(service.stats) == before
