"""Experiment scales: the same pipeline at different data sizes.

``paper`` uses the exact Table I instance counts; ``standard`` caps each
dataset at ~20k raw rows (the pipeline, methods and metrics are
identical, only n shrinks); ``fast`` and ``smoke`` shrink further for
benchmarks and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.registry import PAPER_SIZES

__all__ = ["ExperimentScale", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade run time for statistical resolution.

    Attributes
    ----------
    name:
        Scale label.
    max_instances:
        Raw instance cap per dataset (None = the paper's Table I size).
    n_explain:
        How many undesired-class test rows each method explains.
    blackbox_epochs:
        Training epochs for the classifier stage.
    """

    name: str
    max_instances: int
    n_explain: int
    blackbox_epochs: int

    def instances_for(self, dataset_name):
        """Raw instance count to generate for ``dataset_name``."""
        paper_size = PAPER_SIZES[dataset_name]
        if self.max_instances is None:
            return paper_size
        return min(paper_size, self.max_instances)


SCALES = {
    "paper": ExperimentScale("paper", None, 500, 40),
    "standard": ExperimentScale("standard", 20_000, 300, 35),
    "fast": ExperimentScale("fast", 6_000, 150, 30),
    "smoke": ExperimentScale("smoke", 3_500, 60, 20),
}


def get_scale(name):
    """Look up a named scale."""
    if isinstance(name, ExperimentScale):
        return name
    if name not in SCALES:
        raise KeyError(f"unknown scale {name!r}; options: {sorted(SCALES)}")
    return SCALES[name]
