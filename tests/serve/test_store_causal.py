"""Causal state persistence and causality-aware serving.

Mirrors ``test_store_density.py``: the overlay round trip, the
staleness/corruption contract, warm-started causal serving and the
causal-extended cache keys.
"""

import json

import numpy as np
import pytest

from repro.causal import MinedCausalModel, ScmCausalModel
from repro.serve import (
    ArtifactError,
    ArtifactStore,
    ExplanationService,
    StaleArtifactError,
    WorkerPool,
)


@pytest.fixture()
def saved(tmp_path, tiny_pipeline):
    store = ArtifactStore(tmp_path / "store")
    store.save(tiny_pipeline, name="tiny")
    return store, tiny_pipeline


def fitted_causal(pipeline, kind="scm"):
    if kind == "scm":
        return ScmCausalModel(pipeline.encoder)
    x_train, y_train = pipeline.bundle.split("train")
    return MinedCausalModel(pipeline.encoder).fit(x_train, y_train)


class TestCausalOverlay:
    @pytest.mark.parametrize("kind", ["scm", "mined"])
    def test_round_trip_preserves_fingerprint_and_repairs(self, saved, kind):
        store, pipeline = saved
        model = fitted_causal(pipeline, kind)
        assert not store.has_overlay("tiny", "causal")
        store.save_overlay("tiny", "causal", model)
        assert store.has_overlay("tiny", "causal")

        loaded = store.load_overlay("tiny", "causal", encoder=pipeline.encoder)
        assert loaded.fingerprint() == model.fingerprint()
        x = pipeline.bundle.encoded[:8]
        sweep = np.clip(
            x[:, None, :]
            + np.random.default_rng(0).normal(0.0, 0.1, (8, 3, x.shape[1])),
            0.0, 1.0)
        np.testing.assert_array_equal(
            loaded.repair_batch(x, sweep), model.repair_batch(x, sweep))

    def test_load_rebuilds_encoder_from_manifest_when_omitted(self, saved):
        store, pipeline = saved
        store.save_overlay("tiny", "causal", fitted_causal(pipeline))
        loaded = store.load_overlay("tiny", "causal")
        assert loaded.encoder.schema.name == "adult"
        assert loaded.fingerprint() == fitted_causal(pipeline).fingerprint()

    def test_save_requires_existing_artifact(self, tmp_path, tiny_pipeline):
        store = ArtifactStore(tmp_path / "empty")
        with pytest.raises(ArtifactError, match="save the pipeline first"):
            store.save_overlay("ghost", "causal", fitted_causal(tiny_pipeline))

    def test_load_missing_overlay_raises(self, saved):
        store, _ = saved
        with pytest.raises(ArtifactError, match="no causal state"):
            store.load_overlay("tiny", "causal")

    def test_corrupted_npz_fails_checksum(self, saved):
        store, pipeline = saved
        store.save_overlay("tiny", "causal", fitted_causal(pipeline, "mined"))
        (store.artifact_dir("tiny") / "causal.npz").write_bytes(b"gandalf")
        with pytest.raises(ArtifactError, match="checksum"):
            store.load_overlay("tiny", "causal", encoder=pipeline.encoder)

    def test_tampered_state_is_stale(self, saved):
        store, pipeline = saved
        store.save_overlay("tiny", "causal", fitted_causal(pipeline, "mined"))
        meta_path = store.artifact_dir("tiny") / "causal.json"
        meta = json.loads(meta_path.read_text())
        meta["state"]["strict_margin"] = 0.5  # drifted knob, stale fingerprint
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StaleArtifactError, match="stale"):
            store.load_overlay("tiny", "causal", encoder=pipeline.encoder)

    def test_wrong_format_version_is_stale(self, saved):
        store, pipeline = saved
        store.save_overlay("tiny", "causal", fitted_causal(pipeline))
        meta_path = store.artifact_dir("tiny") / "causal.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(StaleArtifactError, match="format_version"):
            store.load_overlay("tiny", "causal", encoder=pipeline.encoder)

    def test_expected_fingerprint_mismatch_is_stale(self, saved):
        store, pipeline = saved
        store.save_overlay("tiny", "causal", fitted_causal(pipeline))
        with pytest.raises(StaleArtifactError, match="does not match"):
            store.load_overlay(
                "tiny", "causal", encoder=pipeline.encoder, expected_fingerprint="bogus")


class TestCausalAwareServing:
    def test_warm_start_from_store_serves_repaired_batches(self, saved, explain_rows):
        store, pipeline = saved
        model = fitted_causal(pipeline)
        store.save_overlay("tiny", "causal", model)
        service = ExplanationService.warm_start(store, "tiny", overlays={"causal": "store"})
        result = service.explain_batch(explain_rows)
        assert len(result) == len(explain_rows)
        # served counterfactuals are causally consistent
        costs = model.score(explain_rows, result.x_cf)
        np.testing.assert_allclose(costs, np.zeros(len(costs)), atol=1e-6)

    def test_served_output_matches_direct_runner(self, saved, explain_rows):
        from repro.engine import CoreCFStrategy, EngineRunner

        store, pipeline = saved
        model = fitted_causal(pipeline)
        service = ExplanationService(pipeline, causal=model)
        served = service.explain_batch(explain_rows)
        runner = EngineRunner(pipeline.encoder, pipeline.blackbox, causal=model)
        direct = runner.run(
            CoreCFStrategy(pipeline.explainer, n_candidates=1),
            explain_rows, served.desired)
        np.testing.assert_array_equal(served.x_cf, direct.x_cf)

    def test_cache_key_carries_causal_fingerprint(self, saved):
        store, pipeline = saved
        model = fitted_causal(pipeline)
        plain = ExplanationService(pipeline)
        causal = ExplanationService(pipeline, causal=model)
        assert plain.cache_fingerprint.endswith(":none:none:none")
        assert causal.cache_fingerprint.endswith(
            f":none:{model.fingerprint()}:none")
        assert plain.cache_fingerprint != causal.cache_fingerprint

    def test_another_causal_model_keys_another_cache(self, saved):
        store, pipeline = saved
        first = fitted_causal(pipeline, "scm")
        second = fitted_causal(pipeline, "mined")
        one = ExplanationService(pipeline, causal=first)
        other = ExplanationService(pipeline, causal=second)
        assert one.runner.causal is first
        assert other.runner.causal is second
        assert one.cache_fingerprint != other.cache_fingerprint

    def test_flush_routes_tickets_through_the_causal_runner(self, saved, explain_rows):
        store, pipeline = saved
        model = fitted_causal(pipeline)
        rows = explain_rows[:4]
        with WorkerPool(store, "tiny", n_replicas=1, overlays={"causal": model}) as pool:
            answers = pool.flush_rows(rows)
        for row, answer in zip(rows, answers):
            cost = model.score(row.reshape(1, -1), answer["x_cf"].reshape(1, -1))
            assert cost[0] <= 1e-6
