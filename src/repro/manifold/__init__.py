"""Manifold tooling for Figure 6: exact t-SNE, density diagnostics, rendering."""

from .density import centroid_separation, knn_label_agreement
from .render import render_scatter
from .tsne import TSNE, pca_project

__all__ = [
    "TSNE", "pca_project",
    "knn_label_agreement", "centroid_separation",
    "render_scatter",
]
