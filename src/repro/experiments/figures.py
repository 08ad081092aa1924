"""Figure 6 reproduction: t-SNE manifolds of the CF-VAE latent space.

Following Section IV-E: sample points from the latent space of the
trained model, decode them into counterfactual examples, label each 0/1
by whether it satisfies the causal constraints, then t-SNE the latent
vectors into 2-D for three views — the training data, the latent samples
and the decoded (predicted) examples.  Separability of the feasible and
infeasible regions is quantified with the density diagnostics instead of
eyeballing colours.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FeasibleCFExplainer, paper_config
from ..manifold import TSNE, centroid_separation, knn_label_agreement, render_scatter
from ..utils.validation import resolve_desired
from .harness import prepare_context

__all__ = ["ManifoldView", "Figure6Result", "build_figure6"]


@dataclass
class ManifoldView:
    """One of the three panels: embedding + feasibility labels + metrics."""

    name: str
    embedding: np.ndarray
    labels: np.ndarray
    knn_agreement: float
    centroid_separation: float

    def render(self, width=72, height=22):
        """ASCII scatter of the panel."""
        title = (f"{self.name}: knn-agreement={self.knn_agreement:.2f}, "
                 f"centroid-separation={self.centroid_separation:.2f}")
        return render_scatter(self.embedding, self.labels,
                              width=width, height=height, title=title)


@dataclass
class Figure6Result:
    """Figure 6 for one dataset: the three manifold views."""

    dataset: str
    views: list

    def render(self):
        """All panels, stacked."""
        header = f"Figure 6 ({self.dataset}): latent-space manifolds"
        return "\n\n".join([header] + [view.render() for view in self.views])


def build_figure6(dataset, scale="fast", seed=0, n_points=400,
                  constraint_kind="binary", tsne_iterations=400,
                  context=None, explainer=None):
    """Reproduce Figure 6 for one dataset.

    Returns a :class:`Figure6Result` with three :class:`ManifoldView`
    panels (training data, latent samples, decoded examples), each
    labelled feasible (1) / infeasible (0) by the constraint set of the
    trained model.
    """
    if context is None:
        context = prepare_context(dataset, scale=scale, seed=seed)
    if explainer is None:
        explainer = FeasibleCFExplainer(
            context.bundle.encoder, constraint_kind=constraint_kind,
            config=paper_config(dataset, constraint_kind),
            blackbox=context.blackbox, seed=seed)
        explainer.fit(context.x_train, context.y_train)

    rng = np.random.default_rng(seed + 99)
    n_points = min(n_points, len(context.x_train))
    picked = rng.choice(len(context.x_train), n_points, replace=False)
    x = context.x_train[picked]
    desired = resolve_desired(context.blackbox, x, None)

    # latent samples for the picked inputs, then decode + project
    vae = explainer.generator.vae
    z = vae.sample_latent(x, desired)
    decoded = vae.decode_latent(z, desired)
    decoded = explainer.projector.project(x, decoded)
    feasible = explainer.constraints.satisfied(x, decoded).astype(int)

    views = []
    for name, matrix in (("training data", x),
                         ("latent samples", z),
                         ("predicted examples", decoded)):
        perplexity = max(5.0, min(30.0, n_points / 8))
        embedding = TSNE(perplexity=perplexity, n_iter=tsne_iterations,
                         seed=seed).fit_transform(matrix)
        if len(np.unique(feasible)) < 2:
            separation = 0.0
        else:
            separation = centroid_separation(embedding, feasible)
        views.append(ManifoldView(
            name=name,
            embedding=embedding,
            labels=feasible,
            knn_agreement=knn_label_agreement(embedding, feasible),
            centroid_separation=separation,
        ))
    return Figure6Result(dataset=dataset, views=views)
