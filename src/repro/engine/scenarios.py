"""Declarative scenario registry: dataset x strategy x constraint config.

A :class:`Scenario` names one complete explanation workload — which
dataset to load, which strategy to run and which causal-constraint model
to evaluate against.  Every run targets the schema's desired class for
the context's undesired-class rows (the paper's loan-approval setup).
The experiment harness, the CLI (``repro.cli run-scenario``) and the
benchmark matrix all iterate the same registry, so a method x dataset x
constraint sweep is a one-liner instead of bespoke glue per entry point.

Built-in scenarios cover the full Table IV grid (every registry dataset
times every strategy name) plus the density variants — every grid entry
with a ``knn`` and ``kde`` density-aware runner, and the core strategies
additionally with the CF-VAE ``latent`` estimator — the causal
variants — every grid entry with an ``scm`` (structural-equation repair)
and ``mined`` (discovered-relation repair) causal-aware runner — and the
robust variants — every grid entry with a K-model ensemble runner
(``+robust``), plus the density-guided combination of ensemble and
``knn`` estimator (``+robust-knn``) — and the in-loss variants — the
core ``ours_*`` strategies trained under the six-part objective with
differentiable density/causal terms (``+inloss``).  Variant names follow
``"<dataset>/<strategy>+<model>"``.  ``register_scenario`` adds custom
entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .strategy import STRATEGY_NAMES

__all__ = [
    "DEFAULT_ENSEMBLE_SIZE",
    "Scenario",
    "ScenarioResult",
    "get_scenario",
    "iter_scenarios",
    "register_scenario",
    "run_scenario",
    "scenario_names",
    "report_kinds_for",
]


def report_kinds_for(strategy_name):
    """Which Table IV feasibility columns a method reports.

    The core method and Mahajan train one model per constraint kind and
    report only that column (as the paper does); constraint-agnostic
    baselines report both.
    """
    for kind in ("unary", "binary"):
        if strategy_name.endswith(f"_{kind}"):
            return (kind,)
    return ("unary", "binary")


@dataclass(frozen=True)
class Scenario:
    """One named explanation workload.

    Attributes
    ----------
    name:
        Registry key, conventionally ``"<dataset>/<strategy>"``.
    dataset:
        Registered dataset name (``adult`` / ``kdd_census`` /
        ``law_school``).
    strategy:
        Method name accepted by
        :func:`repro.engine.strategy.build_strategy`.
    constraint_kind:
        Constraint model the *context* trains against (``unary`` or
        ``binary``); also the artifact-store kind for warm starts.
    scale:
        Default experiment scale name (overridable at run time).
    strategy_params:
        Extra constructor arguments for the strategy, as a tuple of
        ``(key, value)`` pairs (tuples keep the dataclass hashable).
    density:
        Optional density-estimator name (``knn`` / ``kde`` / ``latent``).
        When set, the run's engine runner hosts a fitted
        :class:`repro.density.DensityModel` (reference population: the
        desired-class training rows), selection becomes density-aware
        and the report gains the density column.
    density_weight:
        Trade-off ``lambda`` of the density-aware selection score.
    density_backend:
        Neighbour backend of the density estimator, one of
        :data:`repro.density.DENSITY_BACKENDS` (``"exact"`` is the
        bit-identical default; ``"ann"`` runs the k-NN family on the
        batched IVF index for 100k+ reference populations).
    causal:
        Optional causal-model name (``scm`` / ``mined``).  When set, the
        run's engine runner hosts a fitted
        :class:`repro.causal.CausalModel` (the mined variant discovers
        its relations from the training split), candidate batches are
        causally repaired before feasibility and the report gains the
        ``causal_plausibility`` column.
    ensemble:
        Number of retrained black-box variants to score candidates
        against (0 — the default — runs the single-model pipeline).
        When positive, the run trains a
        :class:`repro.models.BlackBoxEnsemble` of that size around the
        context's shared black-box, the runner prefers quorum-robust
        candidates, and the report gains the ``cross_model_validity`` /
        ``robust_validity`` columns.
    robust_quorum:
        Member-agreement fraction a candidate needs to count as robust.
    inloss:
        Train with the six-part in-objective loss (differentiable
        density + causal terms folded into CF-VAE training; see
        :func:`repro.core.inloss_config`).  Only the core ``ours_*``
        strategies train a CF-VAE, so only they accept it.
    """

    name: str
    dataset: str
    strategy: str
    constraint_kind: str = "unary"
    scale: str = "fast"
    strategy_params: tuple = field(default_factory=tuple)
    density: str = None
    density_weight: float = 1.0
    density_backend: str = "exact"
    causal: str = None
    ensemble: int = 0
    robust_quorum: float = 0.5
    inloss: bool = False

    def params(self):
        """``strategy_params`` as a plain dict."""
        return dict(self.strategy_params)


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    scenario: Scenario
    report: object
    blackbox_accuracy: float
    n_explained: int


_SCENARIOS = {}

#: Ensemble size (primary model + retrained variants) of the builtin
#: ``+robust`` scenario variants and the CLI ``--ensemble`` default.
DEFAULT_ENSEMBLE_SIZE = 4


def register_scenario(scenario, overwrite=False):
    """Add a scenario to the registry; returns it.

    Validates the names and sizes eagerly so a sweep cannot fail
    halfway through on a typo.
    """
    from ..causal import CAUSAL_NAMES
    from ..data import dataset_names
    from ..density import DENSITY_BACKENDS, DENSITY_NAMES
    from ..utils.validation import check_count

    if scenario.dataset not in dataset_names():
        raise KeyError(
            f"unknown dataset {scenario.dataset!r}; options: {sorted(dataset_names())}"
        )
    if scenario.strategy not in STRATEGY_NAMES:
        raise KeyError(f"unknown strategy {scenario.strategy!r}; options: {STRATEGY_NAMES}")
    if scenario.density is not None and scenario.density not in DENSITY_NAMES:
        raise KeyError(
            f"unknown density estimator {scenario.density!r}; options: {DENSITY_NAMES}"
        )
    if scenario.density_backend not in DENSITY_BACKENDS:
        raise ValueError(
            f"unknown density backend {scenario.density_backend!r}; "
            f"options: {DENSITY_BACKENDS}"
        )
    if scenario.causal is not None and scenario.causal not in CAUSAL_NAMES:
        raise KeyError(
            f"unknown causal model {scenario.causal!r}; options: {CAUSAL_NAMES}"
        )
    check_count(scenario.ensemble, "ensemble", 0)
    if not 0.0 < scenario.robust_quorum <= 1.0:
        raise ValueError(
            f"robust_quorum must be in (0, 1], got {scenario.robust_quorum}"
        )
    if scenario.inloss and not scenario.strategy.startswith("ours_"):
        raise ValueError(
            f"scenario {scenario.name!r}: in-loss training applies to the "
            f"core (ours_*) strategies only; {scenario.strategy!r} trains "
            f"no CF-VAE objective"
        )
    if not overwrite and scenario.name in _SCENARIOS:
        raise KeyError(f"scenario {scenario.name!r} already registered")
    _SCENARIOS[scenario.name] = scenario
    return scenario


def density_variants_for(strategy):
    """Density-estimator names a builtin strategy grid entry gets.

    Every strategy gets the feature-space ``knn``/``kde`` variants; the
    core CF-VAE strategies additionally get the ``latent`` estimator
    (which needs the trained encoder only they carry).
    """
    variants = ["knn", "kde"]
    if strategy.startswith("ours_"):
        variants.append("latent")
    return tuple(variants)


def _register_builtins():
    from ..causal import CAUSAL_NAMES
    from ..data import dataset_names

    for dataset in dataset_names():
        for strategy in STRATEGY_NAMES:
            kind = "binary" if strategy.endswith("_binary") else "unary"
            register_scenario(
                Scenario(
                    name=f"{dataset}/{strategy}",
                    dataset=dataset,
                    strategy=strategy,
                    constraint_kind=kind,
                )
            )
            # density variants: the core strategies propose a diverse
            # sweep so density-aware selection has candidates to rank
            params = (("n_candidates", 8),) if strategy.startswith("ours_") else ()
            for density in density_variants_for(strategy):
                register_scenario(
                    Scenario(
                        name=f"{dataset}/{strategy}+{density}",
                        dataset=dataset,
                        strategy=strategy,
                        constraint_kind=kind,
                        strategy_params=params,
                        density=density,
                    )
                )
            # causal variants: every strategy's candidates repaired by
            # the explicit SCM or the mined relations before feasibility
            for causal in CAUSAL_NAMES:
                register_scenario(
                    Scenario(
                        name=f"{dataset}/{strategy}+{causal}",
                        dataset=dataset,
                        strategy=strategy,
                        constraint_kind=kind,
                        causal=causal,
                    )
                )
            # robust variants: candidates additionally scored against a
            # K-model ensemble with quorum-robust winners preferred;
            # +robust-knn pairs the ensemble with the knn density
            # estimator (the model-multiplicity paper's combination)
            for suffix, density in (("robust", None), ("robust-knn", "knn")):
                register_scenario(
                    Scenario(
                        name=f"{dataset}/{strategy}+{suffix}",
                        dataset=dataset,
                        strategy=strategy,
                        constraint_kind=kind,
                        strategy_params=params,
                        density=density,
                        ensemble=DEFAULT_ENSEMBLE_SIZE,
                    )
                )
            # in-loss variants: the core CF-VAE trained under the
            # six-part objective (density + causal terms in-loss), with
            # the same diverse sweep as the density variants so the
            # candidates-per-valid-CF payoff is observable
            if strategy.startswith("ours_"):
                register_scenario(
                    Scenario(
                        name=f"{dataset}/{strategy}+inloss",
                        dataset=dataset,
                        strategy=strategy,
                        constraint_kind=kind,
                        strategy_params=params,
                        inloss=True,
                    )
                )


#: Sentinel for "no filter" (None filters for model-less entries).
_ANY = object()


def scenario_names(dataset=None, strategy=None, density=_ANY, causal=_ANY,
                   ensemble=_ANY, inloss=_ANY):
    """Registered scenario names, optionally filtered."""
    matches = iter_scenarios(dataset=dataset, strategy=strategy,
                             density=density, causal=causal,
                             ensemble=ensemble, inloss=inloss)
    return [s.name for s in matches]


def iter_scenarios(dataset=None, strategy=None, density=_ANY, causal=_ANY,
                   ensemble=_ANY, inloss=_ANY):
    """Iterate registered scenarios in registration order, filtered.

    ``density`` / ``causal`` filter on the hosted model name; pass
    ``None`` explicitly to iterate only entries without that model (the
    default matches every entry).  ``ensemble`` filters on the hosted
    ensemble size; pass ``0`` explicitly for single-model entries only.
    ``inloss`` filters on the six-part-objective flag.
    """
    for scenario in _SCENARIOS.values():
        if dataset is not None and scenario.dataset != dataset:
            continue
        if strategy is not None and scenario.strategy != strategy:
            continue
        if density is not _ANY and scenario.density != density:
            continue
        if causal is not _ANY and scenario.causal != causal:
            continue
        if ensemble is not _ANY and scenario.ensemble != ensemble:
            continue
        if inloss is not _ANY and scenario.inloss != inloss:
            continue
        yield scenario


def get_scenario(name):
    """Look up a scenario by name."""
    if name not in _SCENARIOS:
        known = ", ".join(sorted(_SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}")
    return _SCENARIOS[name]


def run_scenario(scenario, scale=None, seed=0, store=None, context=None, runner=None):
    """Run one scenario end to end; returns a :class:`ScenarioResult`.

    Loads the dataset and trains the shared black-box (or warm-starts it
    from ``store``), builds and fits the strategy, then scores it through
    the shared engine runner.  ``context``/``runner`` allow a sweep to
    reuse the trained context across scenarios of the same dataset; the
    strategy fits inside the context's warm-start memo
    (:func:`repro.models.training.warm_start_memo`), so a reconstruction
    warm start an earlier scenario of the context already trained is
    restored instead of retrained.

    Density scenarios (``scenario.density`` set) fit the named estimator
    on the desired-class training rows, causal scenarios
    (``scenario.causal`` set) fit the named causal model on the training
    split, and robust scenarios (``scenario.ensemble`` positive) train a
    :class:`repro.models.BlackBoxEnsemble` of that size around the
    context's shared black-box; any of these runs through a dedicated
    model-hosting runner — a passed ``runner`` is not mutated.
    """
    from ..experiments.harness import prepare_context
    from ..models.training import warm_start_memo
    from .runner import EngineRunner
    from .strategy import build_strategy

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    if context is None:
        context = prepare_context(
            scenario.dataset,
            scale=scale or scenario.scale,
            seed=seed,
            store=store,
            constraint_kind=scenario.constraint_kind,
        )
    encoder = context.bundle.encoder

    config = None
    if scenario.inloss:
        from ..core import inloss_config, paper_config

        # the Table III config the strategy would pick by default, with
        # the six-part in-objective terms switched on
        config = inloss_config(
            paper_config(scenario.dataset, scenario.constraint_kind))
    strategy = build_strategy(
        scenario.strategy,
        encoder,
        context.blackbox,
        dataset=scenario.dataset,
        seed=context.seed,
        config=config,
        **scenario.params(),
    )
    with warm_start_memo(context.warm_starts):
        strategy.fit(context.x_train, context.y_train)

    hosts_model = (
        scenario.density is not None
        or scenario.causal is not None
        or scenario.ensemble > 0
    )
    if hosts_model:
        density = None
        if scenario.density is not None:
            density = _fit_scenario_density(scenario, context, strategy)
        causal = None
        if scenario.causal is not None:
            from ..causal import fit_causal

            causal = fit_causal(scenario.causal, encoder, context.x_train, context.y_train)
        ensemble = None
        if scenario.ensemble > 0:
            from ..models import train_ensemble

            # the context's shared black-box joins as member 0, so the
            # cross-model columns measure robustness around the model
            # actually being explained
            ensemble = train_ensemble(
                context.x_train,
                context.y_train,
                n_members=scenario.ensemble,
                seed=context.seed,
                epochs=context.scale.blackbox_epochs,
                include=context.blackbox,
            )
        runner = EngineRunner(
            encoder,
            context.blackbox,
            density=density,
            density_weight=scenario.density_weight,
            causal=causal,
            ensemble=ensemble,
            robust_quorum=scenario.robust_quorum,
        )
    elif runner is None:
        runner = EngineRunner(encoder, context.blackbox)

    report = runner.evaluate(
        strategy,
        context.x_explain,
        context.desired,
        stats=context.stats,
        report_kinds=report_kinds_for(scenario.strategy),
        method_name=scenario.strategy,
    )
    return ScenarioResult(
        scenario=scenario,
        report=report,
        blackbox_accuracy=context.blackbox_accuracy,
        n_explained=len(context.x_explain),
    )


def _fit_scenario_density(scenario, context, strategy):
    """Fit the scenario's density estimator on the desired-class train rows."""
    from ..density import fit_class_density

    vae = None
    if scenario.density == "latent":
        generator = getattr(getattr(strategy, "explainer", None), "generator", None)
        if generator is None:
            raise ValueError(
                f"scenario {scenario.name!r}: the latent density estimator "
                f"needs a trained CF-VAE, which only the core (ours_*) "
                f"strategies carry"
            )
        vae = generator.vae
    return fit_class_density(
        scenario.density,
        context.x_train,
        context.y_train,
        context.bundle.schema.desired_class,
        vae=vae,
        backend=scenario.density_backend,
    )


_register_builtins()
