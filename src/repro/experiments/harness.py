"""Experiment harness: train once, run every method, collect Table IV rows.

``prepare_context`` loads a dataset and trains the shared black-box;
``run_method`` runs one scenario of the engine's registry against that
context; ``run_table4`` sweeps the dataset's full scenario row in the
paper's order.  All method construction and evaluation plumbing lives in
:mod:`repro.engine` — the harness only owns the experiment state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..engine import EngineRunner, get_scenario, run_scenario
from ..engine.strategy import STRATEGY_NAMES
from ..metrics import ProximityStats
from ..models import accuracy
from .runconfig import get_scale

__all__ = ["ExperimentContext", "prepare_context", "run_method", "run_table4",
           "TABLE4_METHOD_ORDER"]

#: Row order of the paper's Table IV (the engine's strategy name order).
TABLE4_METHOD_ORDER = STRATEGY_NAMES


@dataclass
class ExperimentContext:
    """Shared state for one dataset's experiments.

    ``warm_starts`` is the context's reconstruction warm-start memo
    (:func:`repro.models.training.warm_start_memo`): ``run_scenario``
    opens it around each strategy's fit, so scenarios sharing the
    context (a Table IV row, ``ours_unary`` next to its ``+inloss``
    variant) train an identical warm start once and restore it
    bit-identically after that.  It dies with the context; two
    ``prepare_context`` calls never share an entry.
    """

    bundle: object
    blackbox: object
    stats: ProximityStats
    x_train: np.ndarray
    y_train: np.ndarray
    x_explain: np.ndarray
    desired: np.ndarray
    scale: object
    seed: int
    blackbox_accuracy: float
    warm_starts: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dataset(self):
        """Dataset name."""
        return self.bundle.name


def prepare_context(dataset, scale="fast", seed=0, store=None,
                    constraint_kind="unary"):
    """Load data, train the shared black-box, pick the rows to explain.

    The explained rows are test-split instances the classifier assigns to
    the undesired class (the loan-denied population of the paper's
    motivating example), capped at ``scale.n_explain``.

    The build/train code itself lives in :mod:`repro.serve.pipeline` and
    is shared with the serving path; this function is a thin wrapper that
    adds the experiment-specific state (proximity stats, explain rows).
    With ``store`` (a :class:`repro.serve.ArtifactStore`) the shared
    black-box warm-starts from a fresh artifact instead of retraining —
    a stale or missing artifact is trained and saved transparently.
    """
    # Imported lazily: repro.serve imports this package for get_scale.
    from ..serve.pipeline import load_bundle, train_shared_blackbox

    scale = get_scale(scale)
    bundle = load_bundle(dataset, scale=scale, seed=seed)
    x_train, y_train = bundle.split("train")
    x_test, y_test = bundle.split("test")

    if store is None:
        blackbox = train_shared_blackbox(bundle, scale.blackbox_epochs, seed)
    else:
        pipeline, _ = store.ensure(
            dataset, scale=scale, seed=seed, constraint_kind=constraint_kind,
            bundle=bundle)
        blackbox = pipeline.blackbox

    undesired = bundle.schema.desired_class ^ 1
    explain_mask = blackbox.predict(x_test) == undesired
    x_explain = x_test[explain_mask][:scale.n_explain]
    desired = np.full(len(x_explain), bundle.schema.desired_class, dtype=int)

    return ExperimentContext(
        bundle=bundle,
        blackbox=blackbox,
        stats=ProximityStats(bundle.encoder).fit(x_train),
        x_train=x_train,
        y_train=y_train,
        x_explain=x_explain,
        desired=desired,
        scale=scale,
        seed=seed,
        blackbox_accuracy=accuracy(blackbox, x_test, y_test),
    )


def run_method(context, method_name, runner=None):
    """Fit one method and return its :class:`MethodReport` (Table IV row).

    A thin wrapper over the engine's scenario registry: the scenario
    named ``"<dataset>/<method>"`` runs against the already-prepared
    context, so the shared black-box trains exactly once per sweep.
    """
    scenario = get_scenario(f"{context.dataset}/{method_name}")
    result = run_scenario(scenario, context=context, runner=runner)
    return result.report


def run_table4(dataset, scale="fast", seed=0, methods=TABLE4_METHOD_ORDER,
               verbose=False):
    """Run every Table IV method on ``dataset``; returns the report list."""
    context = prepare_context(dataset, scale=scale, seed=seed)
    runner = EngineRunner(context.bundle.encoder, context.blackbox)
    reports = []
    for method_name in methods:
        report = run_method(context, method_name, runner=runner)
        reports.append(report)
        if verbose:
            print(f"  {method_name:<14} validity={report.validity:6.2f} "
                  f"sparsity={report.sparsity:5.2f}")
    return reports
