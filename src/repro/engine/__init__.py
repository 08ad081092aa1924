"""Unified batch-first explainer engine.

The engine layer is where the paper's joint evaluation of causality,
sparsity and density actually runs:

* :mod:`repro.engine.kernel` — feasibility evaluation:
  ``ConstraintSet.compile()`` wraps a constraint set in one evaluator
  that runs each member's own ``satisfied`` once per batch and returns
  the full ``(n, k)`` satisfaction mask and per-constraint rates, with
  tiled candidate-sweep support.
* :mod:`repro.engine.strategy` — one ``CFStrategy`` API implemented by
  the core CF-VAE generator and all six Table IV baselines, plus the
  ``build_strategy`` factory they share.
* :mod:`repro.engine.runner` — ``EngineRunner``: immutable projection,
  validity filtering, feasibility evaluation, candidate selection and
  Table IV scoring, hosted once for every method and the serving layer.
  ``EngineRunner.run`` is the one implementation of the row -> CF chain,
  one whole-batch float64 pass per call.
* :mod:`repro.engine.scenarios` — the declarative scenario registry
  (dataset x strategy x constraint config) the harness, CLI and bench
  iterate over.
"""

from .kernel import CompiledConstraintSet, FeasibilityReport
from .runner import EngineRunner
from .scenarios import (
    DEFAULT_ENSEMBLE_SIZE,
    Scenario,
    ScenarioResult,
    get_scenario,
    iter_scenarios,
    register_scenario,
    run_scenario,
    scenario_names,
)
from .strategy import (
    STRATEGY_NAMES,
    CandidateBatch,
    CFStrategy,
    CoreCFStrategy,
    build_strategy,
)

__all__ = [
    "STRATEGY_NAMES",
    "CFStrategy",
    "CandidateBatch",
    "CompiledConstraintSet",
    "CoreCFStrategy",
    "DEFAULT_ENSEMBLE_SIZE",
    "EngineRunner",
    "FeasibilityReport",
    "Scenario",
    "ScenarioResult",
    "build_strategy",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]
