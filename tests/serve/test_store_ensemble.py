"""Ensemble state persistence, ensemble-aware serving and the structured
``StaleArtifactError`` contract (``expected``/``found`` at every site)."""

import json

import numpy as np
import pytest

from repro.models import train_ensemble
from repro.serve import (
    ArtifactError,
    ArtifactStore,
    ExplanationService,
    StaleArtifactError,
)


@pytest.fixture()
def saved(tmp_path, tiny_pipeline):
    store = ArtifactStore(tmp_path / "store")
    store.save(tiny_pipeline, name="tiny")
    return store, tiny_pipeline


@pytest.fixture(scope="module")
def tiny_ensemble(tiny_pipeline):
    x_train, y_train = tiny_pipeline.bundle.split("train")
    return train_ensemble(
        x_train, y_train, n_members=3, seed=0, epochs=3,
        include=tiny_pipeline.blackbox)


class TestEnsembleOverlay:
    def test_round_trip_preserves_fingerprint_and_scores(self, saved, tiny_ensemble):
        store, pipeline = saved
        assert not store.has_overlay("tiny", "ensemble")
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        assert store.has_overlay("tiny", "ensemble")

        loaded = store.load_overlay("tiny", "ensemble")
        assert loaded.fingerprint() == tiny_ensemble.fingerprint()
        assert loaded.n_members == tiny_ensemble.n_members
        x = pipeline.bundle.encoded[:12]
        np.testing.assert_array_equal(
            loaded.predict_logits_all(x), tiny_ensemble.predict_logits_all(x))

    def test_save_requires_existing_artifact(self, tmp_path, tiny_ensemble):
        store = ArtifactStore(tmp_path / "empty")
        with pytest.raises(ArtifactError, match="save the pipeline first"):
            store.save_overlay("ghost", "ensemble", tiny_ensemble)

    def test_load_missing_overlay_raises(self, saved):
        store, _ = saved
        with pytest.raises(ArtifactError, match="no ensemble state"):
            store.load_overlay("tiny", "ensemble")

    def test_corrupted_npz_fails_checksum(self, saved, tiny_ensemble):
        store, _ = saved
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        (store.artifact_dir("tiny") / "ensemble.npz").write_bytes(b"gandalf")
        with pytest.raises(ArtifactError, match="checksum"):
            store.load_overlay("tiny", "ensemble")

    def test_tampered_state_is_stale(self, saved, tiny_ensemble):
        store, _ = saved
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        meta_path = store.artifact_dir("tiny") / "ensemble.json"
        meta = json.loads(meta_path.read_text())
        meta["state"]["seed"] = 777  # drifted knob, stale fingerprint
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StaleArtifactError, match="stale"):
            store.load_overlay("tiny", "ensemble")

    def test_wrong_format_version_is_stale(self, saved, tiny_ensemble):
        store, _ = saved
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        meta_path = store.artifact_dir("tiny") / "ensemble.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StaleArtifactError, match="format_version"):
            store.load_overlay("tiny", "ensemble")

    def test_expected_fingerprint_mismatch_is_stale(self, saved, tiny_ensemble):
        store, _ = saved
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        with pytest.raises(StaleArtifactError, match="does not match"):
            store.load_overlay("tiny", "ensemble", expected_fingerprint="bogus")


class TestStructuredStaleErrors:
    """Every StaleArtifactError raise site fills ``expected``/``found``."""

    def test_pipeline_requested_fingerprint_mismatch(self, saved):
        store, _ = saved
        with pytest.raises(StaleArtifactError) as info:
            store.load("tiny", expected_fingerprint="bogus")
        assert info.value.expected == "bogus"
        assert info.value.found is not None
        assert info.value.found != "bogus"
        # the message spells out the full pair for rollover logs
        assert "expected bogus" in str(info.value)
        assert f"found {info.value.found}" in str(info.value)

    def test_pipeline_format_version_mismatch(self, saved):
        from repro.serve.store import ARTIFACT_FORMAT_VERSION

        store, _ = saved
        manifest_path = store.artifact_dir("tiny") / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StaleArtifactError) as info:
            store.load("tiny")
        assert info.value.expected == ARTIFACT_FORMAT_VERSION
        assert info.value.found == 99

    def test_pipeline_recomputed_fingerprint_mismatch(self, saved):
        store, _ = saved
        manifest_path = store.artifact_dir("tiny") / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        stored = manifest["fingerprint"]
        manifest["fingerprint"] = "gandalf"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StaleArtifactError) as info:
            store.load("tiny")
        assert info.value.found == "gandalf"
        assert info.value.expected == stored

    def test_overlay_sites_fill_the_attributes(self, saved, tiny_ensemble):
        from repro.serve.store import ARTIFACT_FORMAT_VERSION

        store, _ = saved
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        with pytest.raises(StaleArtifactError) as info:
            store.load_overlay("tiny", "ensemble", expected_fingerprint="bogus")
        assert info.value.expected == "bogus"
        assert info.value.found == tiny_ensemble.fingerprint()

        meta_path = store.artifact_dir("tiny") / "ensemble.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StaleArtifactError) as info:
            store.load_overlay("tiny", "ensemble")
        assert info.value.expected == ARTIFACT_FORMAT_VERSION
        assert info.value.found == 99

    def test_plain_artifact_errors_carry_no_pair(self, saved):
        store, _ = saved
        with pytest.raises(ArtifactError) as info:
            store.load("ghost")
        assert not isinstance(info.value, StaleArtifactError)


class TestEnsembleAwareServing:
    def test_warm_start_from_store_serves_with_cross_model_scores(
            self, saved, tiny_ensemble, explain_rows):
        store, pipeline = saved
        store.save_overlay("tiny", "ensemble", tiny_ensemble)
        service = ExplanationService.warm_start(store, "tiny", overlays={"ensemble": "store"})
        assert service.runner.ensemble.fingerprint() == tiny_ensemble.fingerprint()
        result = service.explain_batch(explain_rows)
        assert len(result) == len(explain_rows)

    def test_served_output_matches_direct_runner(self, saved, tiny_ensemble,
                                                 explain_rows):
        from repro.engine import CoreCFStrategy, EngineRunner

        store, pipeline = saved
        service = ExplanationService(pipeline, ensemble=tiny_ensemble)
        served = service.explain_batch(explain_rows)
        runner = EngineRunner(
            pipeline.encoder, pipeline.blackbox, ensemble=tiny_ensemble)
        direct = runner.run(
            CoreCFStrategy(pipeline.explainer, n_candidates=1),
            explain_rows, served.desired)
        np.testing.assert_array_equal(served.x_cf, direct.x_cf)

    def test_cache_key_carries_ensemble_fingerprint_and_quorum(
            self, saved, tiny_ensemble):
        store, pipeline = saved
        plain = ExplanationService(pipeline)
        robust = ExplanationService(pipeline, ensemble=tiny_ensemble)
        assert plain.cache_fingerprint.endswith(":none")
        assert robust.cache_fingerprint.endswith(
            f":{tiny_ensemble.fingerprint()}@q0.5")
        stricter = ExplanationService(
            pipeline, ensemble=tiny_ensemble, robust_quorum=1.0)
        assert stricter.cache_fingerprint != robust.cache_fingerprint

    def test_another_ensemble_keys_another_cache(self, saved, tiny_ensemble):
        store, pipeline = saved
        x_train, y_train = pipeline.bundle.split("train")
        members = train_ensemble(x_train, y_train, n_members=2, seed=9, epochs=2)
        one = ExplanationService(pipeline, ensemble=tiny_ensemble)
        other = ExplanationService(pipeline, ensemble=members)
        assert one.runner.ensemble is tiny_ensemble
        assert other.runner.ensemble is members
        assert one.cache_fingerprint != other.cache_fingerprint
