"""Tests for the manifold density diagnostics and the ASCII renderer."""

import numpy as np
import pytest

from repro.manifold import centroid_separation, knn_label_agreement, render_scatter


def separated_cloud(n=80, gap=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, size=(n, 2))
    b = rng.normal(gap, 1.0, size=(n, 2))
    return np.vstack([a, b]), np.array([0] * n + [1] * n)


def mixed_cloud(n=160, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.normal(0.0, 1.0, size=(n, 2))
    labels = rng.integers(0, 2, size=n)
    return points, labels


class TestKnnAgreement:
    def test_separated_near_one(self):
        embedding, labels = separated_cloud()
        assert knn_label_agreement(embedding, labels) > 0.95

    def test_mixed_near_half(self):
        embedding, labels = mixed_cloud()
        assert 0.3 < knn_label_agreement(embedding, labels) < 0.7

    def test_rejects_misaligned(self):
        embedding, labels = separated_cloud()
        with pytest.raises(ValueError):
            knn_label_agreement(embedding, labels[:-1])

    def test_k_clipped(self):
        embedding, labels = separated_cloud(n=3)
        value = knn_label_agreement(embedding, labels, k=100)
        assert 0.0 <= value <= 1.0


class TestCentroidSeparation:
    def test_separated_is_large(self):
        embedding, labels = separated_cloud()
        assert centroid_separation(embedding, labels) > 3.0

    def test_mixed_is_small(self):
        embedding, labels = mixed_cloud()
        assert centroid_separation(embedding, labels) < 1.0

    def test_requires_two_classes(self):
        embedding, _ = separated_cloud()
        with pytest.raises(ValueError):
            centroid_separation(embedding, np.zeros(len(embedding)))


class TestRenderScatter:
    def test_contains_legend_and_border(self):
        embedding, labels = separated_cloud(n=20)
        art = render_scatter(embedding, labels, width=40, height=10)
        assert "legend" in art
        assert art.count("+--") >= 1

    def test_title_included(self):
        embedding, labels = separated_cloud(n=20)
        art = render_scatter(embedding, labels, title="Adult manifold")
        assert art.splitlines()[0] == "Adult manifold"

    def test_both_glyphs_present(self):
        embedding, labels = separated_cloud(n=30)
        art = render_scatter(embedding, labels, width=50, height=12)
        assert "." in art and "+" in art

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            render_scatter(np.zeros((5, 3)), np.zeros(5))
        with pytest.raises(ValueError):
            render_scatter(np.zeros((5, 2)), np.zeros(4))

    def test_line_width_constant(self):
        embedding, labels = separated_cloud(n=20)
        art = render_scatter(embedding, labels, width=30, height=8)
        body = [line for line in art.splitlines() if line.startswith("|")]
        assert len(body) == 8
        assert all(len(line) == 32 for line in body)
