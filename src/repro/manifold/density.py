"""Quantifying the Figure 6 claim: feasible and infeasible regions separate.

The paper reads separability off the t-SNE scatter plots by eye; these
diagnostics make it measurable:

* :func:`knn_label_agreement` — fraction of points whose k nearest
  neighbours (in the embedding) share their label.  High agreement means
  the two classes occupy distinct regions.
* :func:`centroid_separation` — distance between class centroids scaled
  by the mean within-class spread (a silhouette-flavoured ratio).
"""

from __future__ import annotations

import numpy as np

from ..density import KnnDensity

__all__ = ["knn_label_agreement", "centroid_separation"]


def knn_label_agreement(embedding, labels, k=10):
    """Mean fraction of each point's k neighbours sharing its label.

    0.5 means fully mixed classes (for balanced labels); 1.0 means
    perfectly separated clusters.  ``k`` is clipped to ``n - 1``
    neighbours, so any oversized k degrades to all-other-points.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    labels = np.asarray(labels)
    if len(embedding) != len(labels):
        raise ValueError("embedding and labels must align")
    n = len(embedding)
    k = min(k, n - 1)
    if k < 1:
        raise ValueError("need at least 2 points")
    tree = KnnDensity(k_neighbors=k).fit(embedding)
    _, neighbors = tree.query(embedding, k=k + 1)
    neighbor_labels = labels[neighbors[:, 1:]]
    agreement = (neighbor_labels == labels[:, None]).mean(axis=1)
    return float(agreement.mean())


def centroid_separation(embedding, labels):
    """Between-centroid distance over mean within-class spread.

    Values well above 1 indicate visually separable regions.
    """
    embedding = np.asarray(embedding, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if len(classes) != 2:
        raise ValueError(f"expected exactly 2 classes, got {len(classes)}")
    a = embedding[labels == classes[0]]
    b = embedding[labels == classes[1]]
    centroid_a = a.mean(axis=0)
    centroid_b = b.mean(axis=0)
    between = np.linalg.norm(centroid_a - centroid_b)
    spread_a = np.linalg.norm(a - centroid_a, axis=1).mean() if len(a) else 0.0
    spread_b = np.linalg.norm(b - centroid_b, axis=1).mean() if len(b) else 0.0
    within = (spread_a + spread_b) / 2.0
    return float(between / (within + 1e-12))
