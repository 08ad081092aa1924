"""Exact t-SNE, implemented from scratch (Figure 6 substrate).

The paper projects VAE latent vectors to 2-D with t-SNE (van der Maaten
& Hinton's refinement of the SNE of Hinton & Roweis, the paper's [21]).
This is the standard exact O(n²) algorithm:

1. per-point Gaussian bandwidths found by binary search so each row of
   the affinity matrix has the requested perplexity,
2. symmetrised input affinities ``P``,
3. Student-t low-dimensional affinities ``Q``,
4. gradient descent on KL(P || Q) with momentum, gains and early
   exaggeration, initialised from PCA.

Sample sizes for the manifold figures are a few thousand points, where
the exact method is fast enough and has no approximation error.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TSNE", "pca_project"]

_EPS = 1e-12


def pca_project(x, n_components=2):
    """Project ``x`` onto its top principal components (t-SNE init)."""
    x = np.asarray(x, dtype=np.float64)
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return centered @ vt[:n_components].T


def _pairwise_sq_distances(x):
    """Squared Euclidean distance matrix."""
    norms = (x ** 2).sum(axis=1)
    d2 = norms[:, None] + norms[None, :] - 2.0 * (x @ x.T)
    np.fill_diagonal(d2, 0.0)
    return np.maximum(d2, 0.0)


def _binary_search_perplexity(distances, perplexity, tol=1e-5, max_iter=50):
    """Per-point precision (beta) matching ``log2(perplexity)`` entropy.

    Batched: every still-unconverged row steps through the same binary
    search simultaneously — one ``exp``/normalise/entropy evaluation per
    iteration over the active rows instead of one Python loop iteration
    per point.  Because each row's arithmetic is independent and the
    per-row reductions keep their length and order, the result is
    bit-identical to the original one-point-at-a-time scalar search
    (the parity reference in ``tests/helpers/loops.py``).
    """
    n = len(distances)
    target = np.log2(perplexity)
    # off-diagonal distances, row-major: row i keeps its n-1 neighbours in
    # exactly np.delete(distances[i], i) order
    off_diag = distances[~np.eye(n, dtype=bool)].reshape(n, n - 1)

    beta = np.ones(n)
    beta_min = np.full(n, -np.inf)
    beta_max = np.full(n, np.inf)
    affinity_rows = np.empty((n, n - 1))
    active = np.arange(n)
    for _ in range(max_iter):
        rows = off_diag[active]
        scaled = np.exp(-rows * beta[active][:, None])
        totals = scaled.sum(axis=1)
        positive = totals > 0
        p = np.where(
            positive[:, None],
            scaled / np.where(positive, totals, 1.0)[:, None],
            1.0 / (n - 1),
        )
        entropy = np.where(
            positive, -(p * np.log2(p + _EPS)).sum(axis=1), 0.0)
        affinity_rows[active] = p

        diff = entropy - target
        undecided = np.abs(diff) >= tol
        if not undecided.any():
            break
        active = active[undecided]
        diff = diff[undecided]

        hot = diff > 0  # entropy too high -> sharpen
        hot_rows, cold_rows = active[hot], active[~hot]
        beta_min[hot_rows] = beta[hot_rows]
        beta[hot_rows] = np.where(
            beta_max[hot_rows] == np.inf,
            beta[hot_rows] * 2.0,
            (beta[hot_rows] + beta_max[hot_rows]) / 2.0,
        )
        beta_max[cold_rows] = beta[cold_rows]
        beta[cold_rows] = np.where(
            beta_min[cold_rows] == -np.inf,
            beta[cold_rows] / 2.0,
            (beta[cold_rows] + beta_min[cold_rows]) / 2.0,
        )

    affinities = np.zeros((n, n))
    affinities[~np.eye(n, dtype=bool)] = affinity_rows.ravel()
    return affinities


class TSNE:
    """Exact t-SNE to ``n_components`` dimensions.

    Parameters
    ----------
    n_components:
        Output dimensionality (the paper uses 2).
    perplexity:
        Effective neighbourhood size; clipped to ``(n - 1) / 3``.
    learning_rate:
        Gradient step scale.
    n_iter:
        Total gradient iterations (early exaggeration occupies the first
        quarter, capped at 100).
    seed:
        Seed for the tiny Gaussian jitter added to the PCA init.
    """

    def __init__(self, n_components=2, perplexity=30.0, learning_rate=200.0,
                 n_iter=500, seed=0):
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        if perplexity <= 1:
            raise ValueError("perplexity must exceed 1")
        if n_iter < 10:
            raise ValueError("n_iter must be >= 10")
        self.n_components = int(n_components)
        self.perplexity = float(perplexity)
        self.learning_rate = float(learning_rate)
        self.n_iter = int(n_iter)
        self.seed = int(seed)
        self.kl_history = []

    def fit_transform(self, x):
        """Embed rows of ``x``; returns an (n, n_components) array."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n = len(x)
        if n < 5:
            raise ValueError("need at least 5 points for t-SNE")

        perplexity = min(self.perplexity, (n - 1) / 3.0)
        distances = _pairwise_sq_distances(x)
        conditional = _binary_search_perplexity(distances, perplexity)
        p = (conditional + conditional.T) / (2.0 * n)
        p = np.maximum(p, _EPS)

        rng = np.random.default_rng(self.seed)
        y = pca_project(x, self.n_components)
        scale = np.abs(y).max()
        if scale > 0:
            y = y / scale * 1e-2
        y = y + rng.normal(0.0, 1e-4, size=y.shape)

        velocity = np.zeros_like(y)
        gains = np.ones_like(y)
        exaggeration_iters = min(100, self.n_iter // 4)
        self.kl_history = []

        for iteration in range(self.n_iter):
            exaggeration = 4.0 if iteration < exaggeration_iters else 1.0
            momentum = 0.5 if iteration < exaggeration_iters else 0.8

            d2 = _pairwise_sq_distances(y)
            student = 1.0 / (1.0 + d2)
            np.fill_diagonal(student, 0.0)
            q = student / max(student.sum(), _EPS)
            q = np.maximum(q, _EPS)

            coefficient = (exaggeration * p - q) * student
            gradient = 4.0 * ((np.diag(coefficient.sum(axis=1)) - coefficient) @ y)

            same_sign = np.sign(gradient) == np.sign(velocity)
            gains = np.where(same_sign, gains * 0.8, gains + 0.2)
            gains = np.maximum(gains, 0.01)
            velocity = momentum * velocity - self.learning_rate * gains * gradient
            y = y + velocity
            y = y - y.mean(axis=0)

            if iteration % 50 == 0 or iteration == self.n_iter - 1:
                kl = float(np.sum(p * np.log(p / q)))
                self.kl_history.append(kl)
        return y
