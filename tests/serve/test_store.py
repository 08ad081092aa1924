"""Artifact-store tests: round-trip fidelity and staleness rejection."""

import json

import numpy as np
import pytest

from repro.serve import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    ArtifactStore,
    ExplanationService,
    StaleArtifactError,
    TrainedPipeline,
)
from repro.serve.store import _file_sha256


@pytest.fixture()
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture()
def saved(store, tiny_pipeline):
    store.save(tiny_pipeline, name="tiny")
    return store


class TestRoundTrip:
    def test_predict_bit_identical(self, saved, tiny_pipeline, explain_rows):
        loaded = saved.load("tiny")
        original = tiny_pipeline.explainer.blackbox.predict_logits(explain_rows)
        restored = loaded.explainer.blackbox.predict_logits(explain_rows)
        assert np.array_equal(original, restored)

    def test_generate_bit_identical(self, saved, tiny_pipeline, explain_rows):
        desired = np.ones(len(explain_rows), dtype=int)
        original = tiny_pipeline.explainer.generator.generate(explain_rows, desired)
        restored = saved.load("tiny").explainer.generator.generate(
            explain_rows, desired
        )
        assert np.array_equal(original, restored)

    def test_explain_bit_identical(self, saved, tiny_pipeline, explain_rows):
        original = tiny_pipeline.explainer.explain(explain_rows)
        restored = saved.load("tiny").explainer.explain(explain_rows)
        assert np.array_equal(original.x_cf, restored.x_cf)
        assert np.array_equal(original.valid, restored.valid)
        assert np.array_equal(original.feasible, restored.feasible)

    def test_candidates_bit_identical(self, saved, tiny_pipeline, explain_rows):
        from tests.helpers.loops import sweep_candidate_sets

        original = sweep_candidate_sets(
            tiny_pipeline.explainer,
            explain_rows[:4],
            n_candidates=5,
            rng=np.random.default_rng(3),
        )
        restored = sweep_candidate_sets(
            saved.load("tiny").explainer,
            explain_rows[:4],
            n_candidates=5,
            rng=np.random.default_rng(3),
        )
        for a, b in zip(original, restored):
            assert np.array_equal(a.candidates, b.candidates)
            assert np.array_equal(a.valid, b.valid)
            assert np.array_equal(a.feasible, b.feasible)

    def test_loaded_provenance(self, saved, tiny_pipeline):
        loaded = saved.load("tiny")
        assert loaded.dataset == "adult"
        assert loaded.seed == 0
        assert loaded.constraint_kind == "unary"
        assert loaded.bundle is None
        assert loaded.fingerprint == tiny_pipeline.fingerprint
        assert loaded.blackbox_accuracy == tiny_pipeline.blackbox_accuracy


class TestManifest:
    def test_contents(self, saved, tiny_pipeline):
        manifest = saved.manifest("tiny")
        assert manifest["format_version"] == ARTIFACT_FORMAT_VERSION
        assert manifest["fingerprint"] == tiny_pipeline.fingerprint
        assert set(manifest["checksums"]) == {"blackbox.npz", "cfvae.npz"}
        assert manifest["encoder"]["schema"] == "adult"

    def test_names_and_exists(self, saved):
        assert saved.names() == ["tiny"]
        assert saved.exists("tiny")
        assert not saved.exists("other")

    def test_fresh(self, saved, tiny_pipeline):
        assert saved.fresh("tiny", tiny_pipeline.fingerprint)
        assert not saved.fresh("tiny", "0" * 64)
        assert not saved.fresh("missing", tiny_pipeline.fingerprint)

    def test_default_name(self):
        assert ArtifactStore.default_name("adult", "unary", 3) == "adult-unary-seed3"


class TestRejection:
    def test_missing_artifact(self, store):
        with pytest.raises(ArtifactError, match="no artifact"):
            store.load("nope")

    def test_corrupted_weights(self, saved):
        path = saved.artifact_dir("tiny") / "cfvae.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="checksum"):
            saved.load("tiny")

    def test_missing_weights_file(self, saved):
        (saved.artifact_dir("tiny") / "blackbox.npz").unlink()
        with pytest.raises(ArtifactError, match="missing blackbox.npz"):
            saved.load("tiny")

    def test_corrupted_manifest(self, saved):
        path = saved.artifact_dir("tiny") / "manifest.json"
        path.write_text(path.read_text()[:40])
        with pytest.raises(ArtifactError, match="corrupted"):
            saved.load("tiny")

    def test_stale_fingerprint(self, saved):
        path = saved.artifact_dir("tiny") / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["seed"] = 99
        path.write_text(json.dumps(manifest))
        with pytest.raises(StaleArtifactError, match="stale"):
            saved.load("tiny")

    def test_stale_format_version(self, saved):
        path = saved.artifact_dir("tiny") / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["format_version"] = ARTIFACT_FORMAT_VERSION + 1
        path.write_text(json.dumps(manifest))
        with pytest.raises(StaleArtifactError, match="format_version"):
            saved.load("tiny")

    def test_expected_fingerprint_mismatch(self, saved):
        with pytest.raises(StaleArtifactError, match="requested"):
            saved.load("tiny", expected_fingerprint="f" * 64)

    def test_refuses_unfitted_pipeline(self, store, tiny_pipeline):
        from repro.core import FeasibleCFExplainer

        unfitted = TrainedPipeline(
            explainer=FeasibleCFExplainer(
                tiny_pipeline.encoder, blackbox=tiny_pipeline.blackbox
            ),
            dataset="adult",
            n_instances=600,
            seed=0,
            constraint_kind="unary",
            blackbox_epochs=4,
            blackbox_accuracy=0.0,
        )
        with pytest.raises(ArtifactError, match="not fitted"):
            store.save(unfitted, name="broken")

    def test_refuses_custom_constraints(self, store, tiny_pipeline):
        custom = TrainedPipeline(
            explainer=tiny_pipeline.explainer,
            dataset="adult",
            n_instances=600,
            seed=0,
            constraint_kind="custom",
            blackbox_epochs=4,
            blackbox_accuracy=0.0,
        )
        with pytest.raises(ArtifactError, match="custom"):
            store.save(custom, name="broken")


class TestEnsure:
    def test_trains_then_hits_cache(self, store, tiny_settings):
        scale, config = tiny_settings
        pipeline, cached = store.ensure("adult", scale=scale, seed=0, config=config)
        assert not cached
        again, cached = store.ensure("adult", scale=scale, seed=0, config=config)
        assert cached
        rows = pipeline.bundle.split("test")[0][:8]
        assert np.array_equal(
            pipeline.explainer.explain(rows).x_cf,
            again.explainer.explain(rows).x_cf,
        )

    def test_changed_blackbox_epochs_is_not_fresh(self, store, tiny_settings):
        from repro.experiments.runconfig import ExperimentScale

        scale, config = tiny_settings
        store.ensure("adult", scale=scale, seed=0, config=config)
        longer = ExperimentScale(
            "tiny-long", scale.max_instances, scale.n_explain,
            scale.blackbox_epochs + 2)
        _, cached = store.ensure("adult", scale=longer, seed=0, config=config)
        assert not cached

    def test_stale_artifact_is_retrained(self, store, tiny_settings):
        scale, config = tiny_settings
        store.ensure("adult", scale=scale, seed=0, config=config)
        name = store.default_name("adult", "unary", 0)
        path = store.artifact_dir(name) / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["fingerprint"] = "0" * 64
        path.write_text(json.dumps(manifest))
        pipeline, cached = store.ensure("adult", scale=scale, seed=0, config=config)
        assert not cached
        assert store.fresh(name, pipeline.fingerprint)

    def test_warm_start_service_from_ensure(self, store, explain_rows, tiny_settings):
        scale, config = tiny_settings
        pipeline, _ = store.ensure("adult", scale=scale, seed=0, config=config)
        name = store.default_name("adult", "unary", 0)
        service = ExplanationService.warm_start(
            store, name, expected_fingerprint=pipeline.fingerprint
        )
        result = service.explain_batch(explain_rows)
        assert np.array_equal(
            result.x_cf, pipeline.explainer.explain(explain_rows).x_cf
        )


def test_fingerprint_matches_recomputation(tiny_pipeline, tiny_settings):
    from repro.data import dataset_schema
    from repro.serve import pipeline_fingerprint

    scale, config = tiny_settings
    recomputed = pipeline_fingerprint(
        "adult",
        scale.instances_for("adult"),
        0,
        "unary",
        config,
        dataset_schema("adult"),
        scale.blackbox_epochs,
    )
    assert tiny_pipeline.fingerprint == recomputed


def test_checksum_helper(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert _file_sha256(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


class TestNonFiniteWeights:
    def test_nan_vae_weight_refuses_save_and_writes_nothing(self, store, tiny_pipeline):
        weight = tiny_pipeline.explainer.generator.vae.output_head.weight
        original = weight.data[0, 0]
        weight.data[0, 0] = np.nan
        try:
            with pytest.raises(ArtifactError, match="vae parameter 'output_head.weight'"):
                store.save(tiny_pipeline, name="diverged")
        finally:
            weight.data[0, 0] = original
        assert not store.exists("diverged")
        assert not (store.artifact_dir("diverged") / "manifest.json").exists()
        assert not store.artifact_dir("diverged").exists()  # nothing written at all

    def test_inf_black_box_weight_is_named(self, store, tiny_pipeline):
        weight = tiny_pipeline.explainer.blackbox.network.layers[0].bias
        original = weight.data[0]
        weight.data[0] = np.inf
        try:
            with pytest.raises(ArtifactError, match="blackbox parameter 'network.layers.0.bias'"):
                store.save(tiny_pipeline, name="diverged")
        finally:
            weight.data[0] = original
        assert store.names() == []
