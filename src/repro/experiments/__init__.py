"""Experiment harness: regenerate every table and figure of the paper."""

from .figures import Figure6Result, ManifoldView, build_figure6
from .harness import (
    TABLE4_METHOD_ORDER,
    ExperimentContext,
    prepare_context,
    run_method,
    run_table4,
)
from .runconfig import SCALES, ExperimentScale, get_scale
from .tables import build_table1, build_table2, build_table3, build_table4, build_table5

__all__ = [
    "ExperimentScale", "SCALES", "get_scale",
    "ExperimentContext", "prepare_context", "run_method", "run_table4",
    "TABLE4_METHOD_ORDER",
    "build_table1", "build_table2", "build_table3", "build_table4", "build_table5",
    "ManifoldView", "Figure6Result", "build_figure6",
]
