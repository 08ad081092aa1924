"""Tests for the repro.density estimators: scoring, tiling, factory."""

import numpy as np
import pytest

from repro.density import (
    DENSITY_NAMES,
    GaussianKdeDensity,
    KnnDensity,
    LatentDensity,
    build_density,
)
from tests.helpers.loops import score_tiled_loop


@pytest.fixture(scope="module")
def reference():
    rng = np.random.default_rng(0)
    return rng.normal(size=(120, 6))


@pytest.fixture(scope="module")
def sweep():
    rng = np.random.default_rng(1)
    return rng.normal(size=(9, 5, 6))


class _StubVAE:
    """Minimal encode_array twin: a fixed linear map into latent space."""

    def __init__(self, d, latent_dim=3, seed=7):
        rng = np.random.default_rng(seed)
        self.w = rng.normal(size=(d, latent_dim))

    def encode_array(self, x, labels):
        mu = np.asarray(x) @ self.w + np.asarray(labels)[:, None]
        return mu, np.zeros_like(mu)


class TestKnnDensity:
    @pytest.mark.parametrize("dataset", ["adult", "kdd_census", "law_school"])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_score_bits_equal_the_tree_query_mean(self, dataset, k):
        from scipy.spatial import cKDTree

        from repro.data import load_dataset
        from repro.density import fit_class_density
        from tests.helpers.parity import perturbed

        bundle = load_dataset(dataset, n_instances=900, seed=1)
        x, y = bundle.split("train")
        desired = bundle.schema.desired_class
        model = fit_class_density("knn", x, y, desired, k_neighbors=k)
        tree = cKDTree(x[y == desired])
        candidates = perturbed(x[:40], np.random.default_rng(k), 0.1, m=8)
        distances = tree.query(candidates, k=k)[0]
        expected = distances if k == 1 else distances.mean(axis=1)
        assert model.score(candidates).tobytes() == expected.tobytes()

    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            KnnDensity().score(np.zeros((2, 3)))

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError, match="k_neighbors"):
            KnnDensity(k_neighbors=0)

    def test_score_is_mean_knn_distance(self, reference):
        model = KnnDensity(k_neighbors=4).fit(reference)
        scores = model.score(reference[:10])
        # a reference point has itself at distance 0 among its neighbours
        far = model.score(reference[:10] + 100.0)
        assert scores.shape == (10,)
        assert np.all(far > scores)

    def test_k_clamps_to_reference_size(self):
        tiny = np.arange(6, dtype=float).reshape(3, 2)
        model = KnnDensity(k_neighbors=50).fit(tiny)
        scores = model.score(tiny)
        assert scores.shape == (3,)
        assert np.all(np.isfinite(scores))

    def test_k1_returns_nearest_distance(self, reference):
        model = KnnDensity(k_neighbors=1).fit(reference)
        scores = model.score(reference[:5])
        np.testing.assert_allclose(scores, 0.0, atol=1e-12)

    def test_query_passthrough(self, reference):
        model = KnnDensity(k_neighbors=3).fit(reference)
        distances, indices = model.query(reference[:4], k=2)
        assert distances.shape == (4, 2)
        assert indices.shape == (4, 2)
        np.testing.assert_array_equal(indices[:, 0], np.arange(4))


class TestGaussianKdeDensity:
    def test_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            GaussianKdeDensity().score(np.zeros((2, 3)))

    def test_dense_region_scores_lower(self, reference):
        model = GaussianKdeDensity().fit(reference)
        inside = model.score(reference[:10])
        outside = model.score(reference[:10] + 50.0)
        assert np.all(outside > inside)

    def test_log_density_matches_naive_sum(self):
        rng = np.random.default_rng(3)
        ref = rng.normal(size=(40, 4))
        model = GaussianKdeDensity().fit(ref)
        points = rng.normal(size=(7, 4))
        h = model.bandwidth
        naive = []
        for point in points:
            z = (point[None, :] - ref) / h
            kernel = np.exp(-0.5 * (z**2).sum(axis=1))
            naive.append(
                np.log(kernel.sum())
                - np.log(len(ref))
                - np.log(h).sum()
                - 0.5 * len(h) * np.log(2 * np.pi)
            )
        np.testing.assert_allclose(model.log_density(points), naive, rtol=1e-10)

    def test_constant_feature_does_not_break_bandwidth(self):
        ref = np.random.default_rng(4).normal(size=(30, 3))
        ref[:, 1] = 2.0
        model = GaussianKdeDensity().fit(ref)
        assert np.all(model.bandwidth > 0)
        assert np.isfinite(model.score(ref[:5])).all()

    def test_chunking_matches_unchunked(self, reference):
        whole = GaussianKdeDensity(chunk_size=4096).fit(reference)
        chunked = GaussianKdeDensity(chunk_size=7).fit(reference)
        points = reference[:23] + 0.1
        np.testing.assert_array_equal(whole.score(points), chunked.score(points))

    def test_rejects_bad_bandwidth(self, reference):
        with pytest.raises(ValueError, match="bandwidth"):
            GaussianKdeDensity(bandwidth=np.zeros(reference.shape[1])).fit(reference)

    def test_refit_rederives_auto_bandwidth(self, reference):
        model = GaussianKdeDensity().fit(reference)
        first = model.bandwidth.copy()
        model.fit(reference * 100.0)
        # Scott bandwidths must follow the NEW population's scales
        np.testing.assert_allclose(model.bandwidth, first * 100.0, rtol=1e-9)
        fresh = GaussianKdeDensity().fit(reference * 100.0)
        points = reference[:5] * 100.0
        np.testing.assert_array_equal(model.score(points), fresh.score(points))

    def test_refit_keeps_explicit_bandwidth(self, reference):
        model = GaussianKdeDensity(bandwidth=0.3).fit(reference)
        model.fit(reference * 100.0)
        np.testing.assert_allclose(model.bandwidth, 0.3)


class TestLatentDensity:
    def test_requires_vae(self, reference):
        model = LatentDensity(vae=None)
        with pytest.raises(RuntimeError, match="no VAE"):
            model.fit(reference)

    def test_scores_in_latent_space(self, reference):
        vae = _StubVAE(reference.shape[1])
        model = LatentDensity(vae=vae, desired_class=1, k_neighbors=4).fit(reference)
        # equivalent to knn over the encoded reference
        labels = np.ones(len(reference))
        latents, _ = vae.encode_array(reference, labels)
        manual = KnnDensity(k_neighbors=4).fit(latents)
        points = reference[:8] + 0.3
        expect = manual.score(vae.encode_array(points, np.ones(8))[0])
        np.testing.assert_array_equal(model.score(points), expect)


class TestTiledScoring:
    def test_knn_tiled_matches_loop_bitwise(self, reference, sweep):
        # per-point tree queries: the one-query sweep is exactly the loop
        model = KnnDensity(k_neighbors=5).fit(reference)
        np.testing.assert_array_equal(
            model.score_tiled(sweep), score_tiled_loop(model, sweep))

    @pytest.mark.parametrize("make", [
        lambda ref: GaussianKdeDensity().fit(ref),
        lambda ref: LatentDensity(vae=_StubVAE(ref.shape[1]), k_neighbors=5).fit(ref),
    ])
    def test_matmul_backends_tiled_matches_loop_numerically(
            self, reference, sweep, make):
        # BLAS blocking varies with batch shape, so matmul-backed
        # estimators are equivalent within float tolerance, not bitwise
        model = make(reference)
        np.testing.assert_allclose(
            model.score_tiled(sweep), score_tiled_loop(model, sweep),
            rtol=1e-7, atol=1e-9)

    def test_tiled_rejects_2d(self, reference):
        model = KnnDensity().fit(reference)
        with pytest.raises(ValueError, match="n_rows, n_candidates"):
            model.score_tiled(reference)


class TestFactory:
    def test_builds_every_name(self):
        assert isinstance(build_density("knn"), KnnDensity)
        assert isinstance(build_density("kde"), GaussianKdeDensity)
        assert isinstance(build_density("latent"), LatentDensity)
        assert set(DENSITY_NAMES) == {"knn", "kde", "latent"}

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown density"):
            build_density("histogram")

    def test_knobs_reach_estimators(self):
        assert build_density("knn", k_neighbors=3).k_neighbors == 3
        assert build_density("latent", k_neighbors=7, desired_class=0).k_neighbors == 7
