"""Density state persistence and density-aware warm-start serving."""

import numpy as np
import pytest

from repro.density import KnnDensity, LatentDensity
from repro.serve import ArtifactStore, ExplanationService
from repro.serve.store import ArtifactError, StaleArtifactError


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    from repro.experiments.runconfig import ExperimentScale
    from repro.serve import train_pipeline

    scale = ExperimentScale("tiny", 900, 10, 4)
    pipeline = train_pipeline("adult", scale=scale, seed=0)
    store = ArtifactStore(tmp_path_factory.mktemp("artifacts"))
    store.save(pipeline, name="t")
    x_train, y_train = pipeline.bundle.split("train")
    desired_class = int(pipeline.bundle.schema.desired_class)
    reference = x_train[y_train == desired_class][:150]
    return store, pipeline, reference


class TestDensityPersistence:
    def test_roundtrip_bitwise(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        store.save_overlay("t", "density", model)
        assert store.has_overlay("t", "density")
        loaded = store.load_overlay("t", "density")
        assert loaded.fingerprint() == model.fingerprint()
        probe = reference[:7] + 0.05
        np.testing.assert_array_equal(loaded.score(probe), model.score(probe))

    def test_latent_roundtrip_reattaches_pipeline_vae(self, trained):
        store, pipeline, reference = trained
        vae = pipeline.explainer.generator.vae
        model = LatentDensity(vae=vae, k_neighbors=5).fit(reference)
        store.save_overlay("t", "density", model)
        loaded = store.load_overlay("t", "density", vae=vae)
        probe = reference[:7]
        np.testing.assert_array_equal(loaded.score(probe), model.score(probe))

    def test_requires_existing_artifact(self, trained, tmp_path):
        _, _, reference = trained
        empty = ArtifactStore(tmp_path / "empty")
        with pytest.raises(ArtifactError, match="save the pipeline first"):
            empty.save_overlay("ghost", "density", KnnDensity().fit(reference))

    def test_missing_density_state_raises(self, trained, tmp_path):
        store, pipeline, _ = trained
        bare = ArtifactStore(tmp_path / "bare")
        bare.save(pipeline, name="b")
        assert not bare.has_overlay("b", "density")
        with pytest.raises(ArtifactError, match="no density state"):
            bare.load_overlay("b", "density")

    def test_corrupted_npz_fails_checksum(self, trained, tmp_path):
        store, pipeline, reference = trained
        broken = ArtifactStore(tmp_path / "broken")
        broken.save(pipeline, name="b")
        broken.save_overlay("b", "density", KnnDensity(k_neighbors=5).fit(reference))
        npz = broken.artifact_dir("b") / "density.npz"
        npz.write_bytes(npz.read_bytes()[:-8] + b"corrupted")
        with pytest.raises(ArtifactError, match="checksum"):
            broken.load_overlay("b", "density")

    def test_fingerprint_mismatch_is_stale(self, trained, tmp_path):
        store, pipeline, reference = trained
        other = ArtifactStore(tmp_path / "other")
        other.save(pipeline, name="b")
        model = KnnDensity(k_neighbors=5).fit(reference)
        other.save_overlay("b", "density", model)
        with pytest.raises(StaleArtifactError, match="does not match"):
            other.load_overlay("b", "density", expected_fingerprint="deadbeefdeadbeef")


class TestDensityAwareServing:
    def test_warm_start_from_store_state(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        store.save_overlay("t", "density", model)
        service = ExplanationService.warm_start(store, "t", overlays={"density": "store"})
        assert service.density is not None
        assert service.density.fingerprint() == model.fingerprint()
        x_test, _ = pipeline.bundle.split("test")
        result = service.explain_batch(x_test[:6])
        assert result.x_cf.shape == (6, x_test.shape[1])

    def test_cache_key_carries_density_fingerprint_and_weight(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        plain = ExplanationService(pipeline)
        dense = ExplanationService(pipeline, density=model)
        assert plain.cache_fingerprint.endswith(":none:none:none")
        assert dense.cache_fingerprint.endswith(
            f":{model.fingerprint()}@w1.0:none:none")
        assert plain.cache_fingerprint != dense.cache_fingerprint

    def test_repointing_density_refreshes_fingerprint_and_runner(self, trained):
        store, pipeline, reference = trained
        first = KnnDensity(k_neighbors=5).fit(reference)
        second = KnnDensity(k_neighbors=7).fit(reference)
        service = ExplanationService(pipeline, density=first)
        runner_before = service.runner
        key_before = service.cache_fingerprint
        service.density = second
        assert service.cache_fingerprint != key_before
        assert service.runner is not runner_before
        assert service.runner.density is second

    def test_repointing_density_weight_refreshes_key_and_runner(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        service = ExplanationService(pipeline, density=model, density_weight=1.0)
        runner_before = service.runner
        key_before = service.cache_fingerprint
        service.density_weight = 4.0
        assert service.cache_fingerprint != key_before
        assert service.runner is not runner_before
        assert service.runner.density_weight == 4.0

    def test_density_batches_select_by_figure3_policy(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        x_test, _ = pipeline.bundle.split("test")
        rows = x_test[:6]
        plain = ExplanationService(pipeline).explain_batch(rows)
        heavy = ExplanationService(
            pipeline, density=model, density_weight=100.0).explain_batch(rows)
        assert (model.score(heavy.x_cf).mean()
                <= model.score(plain.x_cf).mean() + 1e-9)

    def test_flush_routes_through_density_runner(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        service = ExplanationService(pipeline, density=model)
        x_test, _ = pipeline.bundle.split("test")
        ticket = service.submit(x_test[0])
        service.flush()
        resolved = ticket.result()
        assert 0 <= resolved["chosen"] < service.density_candidates
        assert isinstance(resolved["valid"], bool)


class TestWarmStartBackend:
    def test_warm_start_rebinds_density_to_ann(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        store.save_overlay("t", "density", model)
        service = ExplanationService.warm_start(
            store, "t", overlays={"density": "store"}, density_backend="ann")
        assert service.density.backend == "ann"
        # the persisted state is backend-agnostic: same reference rows
        np.testing.assert_array_equal(service.density.reference_, reference)
        x_test, _ = pipeline.bundle.split("test")
        result = service.explain_batch(x_test[:4])
        assert result.x_cf.shape == (4, x_test.shape[1])

    def test_backend_without_density_overlay_rejected(self, trained):
        store, pipeline, _ = trained
        with pytest.raises(ValueError, match="density overlay"):
            ExplanationService.warm_start(store, "t", density_backend="ann")

    def test_ann_rebind_changes_cache_fingerprint(self, trained):
        store, pipeline, reference = trained
        model = KnnDensity(k_neighbors=5).fit(reference)
        store.save_overlay("t", "density", model)
        exact = ExplanationService.warm_start(
            store, "t", overlays={"density": "store"})
        ann = ExplanationService.warm_start(
            store, "t", overlays={"density": "store"}, density_backend="ann")
        assert exact.cache_fingerprint != ann.cache_fingerprint
