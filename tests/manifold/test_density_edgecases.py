"""Edge-case coverage for the manifold density diagnostics."""

import numpy as np
import pytest

from repro.manifold import centroid_separation, knn_label_agreement


class TestKnnLabelAgreementEdges:
    def test_k_at_least_n_clips_to_all_other_points(self):
        rng = np.random.default_rng(0)
        embedding = rng.normal(size=(6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        clipped = knn_label_agreement(embedding, labels, k=100)
        explicit = knn_label_agreement(embedding, labels, k=5)
        assert clipped == explicit

    def test_two_points(self):
        embedding = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert knn_label_agreement(embedding, np.array([0, 1]), k=10) == 0.0
        assert knn_label_agreement(embedding, np.array([1, 1]), k=10) == 1.0

    def test_single_point_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            knn_label_agreement(np.zeros((1, 2)), np.array([0]), k=3)

    def test_misaligned_labels_raise(self):
        with pytest.raises(ValueError, match="align"):
            knn_label_agreement(np.zeros((4, 2)), np.array([0, 1]))


class TestCentroidSeparationEdges:
    def test_single_member_class(self):
        rng = np.random.default_rng(1)
        embedding = np.vstack([rng.normal(size=(9, 2)), [[50.0, 50.0]]])
        labels = np.array([0] * 9 + [1])
        ratio = centroid_separation(embedding, labels)
        # the singleton class has zero spread; the ratio stays finite
        # and reflects the wide between-centroid gap
        assert np.isfinite(ratio)
        assert ratio > 1.0

    def test_two_singletons(self):
        embedding = np.array([[0.0, 0.0], [3.0, 4.0]])
        ratio = centroid_separation(embedding, np.array([0, 1]))
        # zero within-class spread on both sides -> epsilon-guarded blowup
        assert ratio > 1e6

    def test_one_class_raises(self):
        with pytest.raises(ValueError, match="2 classes"):
            centroid_separation(np.zeros((4, 2)), np.zeros(4))
