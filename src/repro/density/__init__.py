"""Unified batch-first density subsystem (the paper's third pillar).

One ``DensityModel`` layer powers every density question in the stack:
the engine runner's Figure 3 candidate selection (which
``DensityCFSelector`` wraps) and Table IV density column, FACE's
density-penalised graph, warm-started serving (density state persisted
by the ``ArtifactStore``) and the ``density=`` scenario variants.  See
``docs/density.md``.
"""

from .ann import AnnIndex, recall_at_k
from .base import (
    DEFAULT_TILE_BUDGET,
    DENSITY_BACKENDS,
    DENSITY_NAMES,
    DensityModel,
    build_density,
    density_from_state,
    fit_class_density,
)
from .differentiable import DifferentiableKde, LatentSoftMinDensity, build_inloss_density
from .estimators import GaussianKdeDensity, KnnDensity, LatentDensity

__all__ = [
    "AnnIndex",
    "DEFAULT_TILE_BUDGET",
    "DENSITY_BACKENDS",
    "DENSITY_NAMES",
    "DensityModel",
    "DifferentiableKde",
    "GaussianKdeDensity",
    "KnnDensity",
    "LatentDensity",
    "LatentSoftMinDensity",
    "build_density",
    "build_inloss_density",
    "density_from_state",
    "fit_class_density",
    "recall_at_k",
]
