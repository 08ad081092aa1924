"""Tests for the ANN density backend: recall, conventions, state, wiring."""

import numpy as np
import pytest

from repro.data import load_dataset
from repro.density import (
    DEFAULT_TILE_BUDGET,
    DENSITY_BACKENDS,
    AnnIndex,
    GaussianKdeDensity,
    KnnDensity,
    LatentDensity,
    build_density,
    recall_at_k,
)

#: The measured contract: ANN neighbour sets must overlap the exact ones
#: at least this much on every registry dataset (the at-scale benchmark
#: asserts the same floor before timing anything).
RECALL_FLOOR = 0.9


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(0)
    return rng.normal(size=(400, 6))


class _StubVAE:
    """Minimal encode_array twin: a fixed linear map into latent space."""

    def __init__(self, d, latent_dim=3, seed=7):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(size=(d, latent_dim))

    def encode_array(self, x, labels):
        mu = np.asarray(x) @ self.w + np.asarray(labels)[:, None]
        return mu, np.zeros_like(mu)


class TestAnnIndex:
    # kdd_census encodes to 144 one-hot dimensions, where coarse IVF
    # centroids separate poorly at this tiny reference size — the
    # ann_probes knob widens the scan to hold the floor (the defaults
    # target the at-scale populations the benchmark measures).  The last
    # case holds the floor at 10,000 reference rows.
    @pytest.mark.parametrize("dataset,probes,n_instances", [
        pytest.param("adult", None, 1500, id="adult-None"),
        pytest.param("kdd_census", 64, 1500, id="kdd_census-64"),
        pytest.param("law_school", None, 1500, id="law_school-None"),
        pytest.param("adult", None, 15_000, id="adult-None-10k_reference")])
    def test_recall_floor_on_registry_datasets(self, dataset, probes, n_instances):
        bundle = load_dataset(dataset, n_instances=n_instances, seed=0)
        reference = bundle.encoded
        if n_instances > 1500:
            assert len(reference) >= 10_000
        rng = np.random.default_rng(1)
        queries = reference[rng.integers(0, len(reference), size=128)]
        queries = queries + rng.normal(0.0, 0.02, size=queries.shape)
        exact = KnnDensity(k_neighbors=10).fit(reference)
        ann = exact.with_backend("ann", ann_probes=probes)
        _, exact_idx = exact.query(queries, k=10, backend="exact")
        _, ann_idx = ann.query(queries, k=10)
        assert recall_at_k(exact_idx, ann_idx) >= RECALL_FLOOR

    def test_duplicate_points_score_zero(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(50, 4))
        reference = np.repeat(base, 12, axis=0)  # every point 12 times
        model = KnnDensity(k_neighbors=5, backend="ann").fit(reference)
        scores = model.score(base)
        # the float32 norm-expansion in the IVF scan leaves ~1e-3 noise
        # on exact-zero distances; what matters is no crash on massive
        # ties and scores pinned (approximately) at zero
        np.testing.assert_allclose(scores, 0.0, atol=1e-2)
        far = model.score(base + 50.0)
        assert np.all(far > 1.0)

    def test_constant_column_reference(self):
        rng = np.random.default_rng(3)
        reference = rng.normal(size=(300, 5))
        reference[:, 2] = 7.0  # degenerate coordinate
        exact = KnnDensity(k_neighbors=6).fit(reference)
        queries = reference[:32] + 0.01
        _, exact_idx = exact.query(queries, k=6, backend="exact")
        _, ann_idx = exact.query(queries, k=6, backend="ann")
        assert recall_at_k(exact_idx, ann_idx) >= RECALL_FLOOR

    def test_k_exceeding_reference_pads_like_ckdtree(self):
        reference = np.arange(8, dtype=float).reshape(4, 2)
        index = AnnIndex(seed=0).fit(reference)
        dist, idx = index.query(reference[:2], k=7)
        assert dist.shape == (2, 7) and idx.shape == (2, 7)
        # cKDTree convention: missing neighbours are inf at index n
        assert np.all(np.isinf(dist[:, 4:]))
        assert np.all(idx[:, 4:] == 4)
        assert np.all(np.isfinite(dist[:, :4]))

    def test_1d_query_and_k1_squeeze(self, reference):
        index = AnnIndex(seed=0).fit(reference)
        dist, idx = index.query(reference[3], k=4)
        assert dist.shape == (4,) and idx.shape == (4,)
        dist1, idx1 = index.query(reference[:5], k=1)
        assert dist1.shape == (5,) and idx1.shape == (5,)
        np.testing.assert_allclose(dist1, 0.0, atol=1e-9)

    def test_self_queries_find_themselves(self, reference):
        index = AnnIndex(seed=0).fit(reference)
        dist, idx = index.query(reference, k=1)
        np.testing.assert_array_equal(idx, np.arange(len(reference)))

    def test_recall_helper_bounds(self):
        exact = np.array([[0, 1, 2], [3, 4, 5]])
        assert recall_at_k(exact, exact) == 1.0
        assert recall_at_k(exact, exact[:, ::-1]) == 1.0  # order-free
        miss = np.array([[0, 1, 9], [9, 9, 9]])
        assert recall_at_k(exact, miss) == pytest.approx(2 / 6)


class TestBackendWiring:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown density backend"):
            KnnDensity(backend="faiss")
        assert DENSITY_BACKENDS == ("exact", "ann")

    def test_exact_state_has_no_backend_keys(self, reference):
        state = KnnDensity(k_neighbors=4).fit(reference).get_state()
        assert "backend" not in state
        assert not any(key.startswith("ann_") for key in state)

    def test_ann_state_roundtrip(self, reference):
        model = KnnDensity(k_neighbors=4, backend="ann", ann_seed=3)
        model = model.fit(reference)
        state = model.get_state()
        assert state["backend"] == "ann"
        clone = KnnDensity.from_state(state)
        assert clone.backend == "ann" and clone.ann_seed == 3
        np.testing.assert_array_equal(
            clone.score(reference[:10]), model.score(reference[:10]))

    def test_backend_changes_fingerprint(self, reference):
        # ANN answers are approximate, so a backend switch must never
        # serve cached exact results (or vice versa): the fingerprint
        # includes the backend exactly when it is non-exact
        exact = KnnDensity(k_neighbors=4).fit(reference)
        ann = exact.with_backend("ann")
        assert ann.fingerprint() != exact.fingerprint()

    def test_with_backend_exact_roundtrip(self, reference):
        model = KnnDensity(k_neighbors=4).fit(reference)
        back = model.with_backend("ann").with_backend("exact")
        assert back.backend == "exact"
        assert back.fingerprint() == model.fingerprint()
        probe = reference[:8] + 0.03
        np.testing.assert_array_equal(back.score(probe), model.score(probe))

    def test_with_backend_shares_reference(self, reference):
        exact = KnnDensity(k_neighbors=4).fit(reference)
        ann = exact.with_backend("ann")
        assert ann is not exact and ann.backend == "ann"
        assert ann.reference_ is exact.reference_
        assert ann.score(reference[:5]).shape == (5,)

    def test_build_density_backend(self, reference):
        model = build_density("knn", k_neighbors=4, backend="ann")
        assert model.backend == "ann"
        with pytest.raises(ValueError, match="backend"):
            build_density("kde", backend="ann")

    def test_latent_density_forwards_backend(self, reference):
        vae = _StubVAE(reference.shape[1])
        exact = LatentDensity(vae=vae, k_neighbors=4).fit(reference)
        ann = exact.with_backend("ann")
        assert ann.backend == "ann"
        probe = reference[:6] + 0.05
        exact_scores = exact.score(probe)
        ann_scores = ann.score(probe)
        assert ann_scores.shape == exact_scores.shape
        # latent reference is tiny here, so ANN should agree closely
        assert np.mean(np.isclose(ann_scores, exact_scores)) >= RECALL_FLOOR

    def test_face_runs_with_ann_backend(self):
        from repro.baselines import FACEExplainer
        from repro.models import BlackBoxClassifier, train_classifier

        bundle = load_dataset("adult", n_instances=900, seed=0)
        x_train, y_train = bundle.split("train")
        blackbox = BlackBoxClassifier(
            bundle.encoder.n_encoded, np.random.default_rng(0))
        train_classifier(blackbox, x_train, y_train, epochs=5,
                         rng=np.random.default_rng(0))
        face = FACEExplainer(bundle.encoder, blackbox, seed=0,
                             max_vertices=300, density_backend="ann")
        assert face.density_backend == "ann"
        face.fit(x_train, y_train)
        assert face._density.backend == "ann"
        x_test, _ = bundle.split("test")
        negatives = x_test[blackbox.predict(x_test) == 0][:4]
        cf = face.generate(negatives)
        assert cf.shape == negatives.shape


class TestTileBudget:
    def test_score_tiled_parity_under_tiny_budget(self, reference):
        sweep = np.random.default_rng(5).normal(size=(7, 11, 6))
        full = KnnDensity(k_neighbors=4).fit(reference)
        tiled = KnnDensity(k_neighbors=4, tile_budget=256).fit(reference)
        np.testing.assert_array_equal(
            tiled.score_tiled(sweep), full.score_tiled(sweep))

    def test_kde_chunked_parity(self, reference):
        sweep = np.random.default_rng(6).normal(size=(5, 9, 6))
        full = GaussianKdeDensity().fit(reference)
        tiled = GaussianKdeDensity(tile_budget=128).fit(reference)
        np.testing.assert_allclose(
            tiled.score_tiled(sweep), full.score_tiled(sweep), rtol=1e-12)

    def test_default_budget_exported(self, reference):
        assert DEFAULT_TILE_BUDGET == 1 << 24
        # even a degenerate one-element budget only shrinks the chunks
        sweep = np.random.default_rng(7).normal(size=(3, 4, 6))
        full = KnnDensity(k_neighbors=4).fit(reference)
        tiny = KnnDensity(k_neighbors=4, tile_budget=1).fit(reference)
        np.testing.assert_array_equal(
            tiny.score_tiled(sweep), full.score_tiled(sweep))
