"""Command-line interface for regenerating the paper's artifacts.

Usage (after ``pip install -e .``)::

    python -m repro.cli table1 --scale fast
    python -m repro.cli table4 --dataset adult --scale smoke
    python -m repro.cli figure6 --dataset law_school --out results/
    python -m repro.cli all --scale fast --out results/fast

Each command prints the rendered artifact and optionally writes it to
``--out``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

__all__ = ["build_parser", "main"]

_DATASETS = ("adult", "kdd_census", "law_school")
_DATASET_LABELS = {
    "adult": "Adult Income dataset",
    "kdd_census": "KDD-Census Income dataset",
    "law_school": "Law School dataset",
}


def build_parser():
    """Construct the argparse parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Regenerate tables/figures of the feasible-counterfactual paper.")
    parser.add_argument("command",
                        choices=["table1", "table2", "table3", "table4",
                                 "table5", "figure6", "discover", "serve-demo",
                                 "run-scenario", "list-scenarios", "all"],
                        help="which artifact to regenerate")
    parser.add_argument("--dataset", choices=_DATASETS, default="adult",
                        help="dataset for table4/table5/figure6/discover")
    parser.add_argument("--scale", default="fast",
                        choices=["smoke", "fast", "standard", "paper"],
                        help="experiment scale (see repro.experiments.SCALES)")
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument("--out", default=None,
                        help="directory to also write artifacts into")
    parser.add_argument("--artifact-dir", default="artifacts",
                        help="pipeline artifact store directory (serve-demo)")
    parser.add_argument("--rows", type=int, default=128,
                        help="batch size the serve-demo answers")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="serve-demo replica count: N > 1 serves the "
                             "batch through a consistent-hash-routed "
                             "WorkerPool of N warm replicas sharing one "
                             "pipeline and prints per-replica stats")
    parser.add_argument("--async", dest="use_async", action="store_true",
                        help="serve-demo answers through the asyncio "
                             "coalescing front (single-row requests "
                             "micro-batched into pool flushes) instead of "
                             "one synchronous batch call")
    parser.add_argument("--scenario", default=None,
                        help="registered scenario name, e.g. adult/face "
                             "(run-scenario)")
    parser.add_argument("--strategy", default=None,
                        help="strategy name filter (list-scenarios) or the "
                             "strategy serve-demo serves instead of the core "
                             "generator, e.g. dice_random")
    parser.add_argument("--density", default=None,
                        choices=["knn", "kde", "latent"],
                        help="density estimator: run-scenario runs the "
                             "scenario's density variant; serve-demo fits it, "
                             "persists it to the artifact store and serves "
                             "density-aware from the warm start")
    parser.add_argument("--density-backend", default=None,
                        choices=["exact", "ann"],
                        help="neighbour backend for the density estimator: "
                             "run-scenario overrides the scenario's "
                             "density_backend field; serve-demo re-indexes "
                             "the served density overlay (requires "
                             "--density). 'exact' is the bit-identical "
                             "default; 'ann' runs the batched IVF index for "
                             "large reference populations")
    parser.add_argument("--causal", default=None,
                        choices=["scm", "mined"],
                        help="causal model: run-scenario runs the scenario's "
                             "causal variant (candidates repaired before "
                             "feasibility); serve-demo fits it, persists it "
                             "to the artifact store and serves causally "
                             "repaired from the warm start")
    parser.add_argument("--ensemble", type=int, default=None, metavar="K",
                        help="ensemble size: run-scenario runs the scenario's "
                             "+robust variant with K retrained black-box "
                             "members scoring every candidate; serve-demo "
                             "trains the ensemble, persists it to the "
                             "artifact store and serves robust-aware from "
                             "the warm start")
    parser.add_argument("--inloss", action="store_true",
                        help="run-scenario runs the scenario's +inloss "
                             "variant: the core CF-VAE trained under the "
                             "six-part objective with differentiable "
                             "density and causal terms (ours_* strategies "
                             "only)")
    return parser


def _emit(text, out_dir, name):
    print(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(text + "\n")


def _run_table4(dataset, scale, seed, out_dir):
    from .experiments import build_table4, run_table4

    reports = run_table4(dataset, scale=scale, seed=seed, verbose=True)
    text, _ = build_table4(reports, _DATASET_LABELS[dataset])
    _emit(text, out_dir, f"table4_{dataset}.txt")


def _run_table5(dataset, scale, seed, out_dir):
    from .core import FeasibleCFExplainer, paper_config
    from .experiments import build_table5, prepare_context

    context = prepare_context(dataset, scale=scale, seed=seed)
    explainer = FeasibleCFExplainer(
        context.bundle.encoder, constraint_kind="binary",
        config=paper_config(dataset, "binary"),
        blackbox=context.blackbox, seed=seed)
    explainer.fit(context.x_train, context.y_train)
    batch = explainer.explain(context.x_explain, context.desired)
    _emit(build_table5(batch)[0], out_dir, f"table5_{dataset}.txt")


def _run_figure6(dataset, scale, seed, out_dir):
    from .experiments import build_figure6

    figure = build_figure6(dataset, scale=scale, seed=seed)
    _emit(figure.render(), out_dir, f"figure6_{dataset}.txt")


def _run_discover(dataset, scale, seed, out_dir):
    from .constraints import ConstraintMiner
    from .data import load_dataset
    from .experiments import get_scale
    from .utils.tables import render_table

    scale_obj = get_scale(scale)
    bundle = load_dataset(dataset, n_instances=scale_obj.instances_for(dataset),
                          seed=seed)
    relations = ConstraintMiner(bundle.encoder).mine(bundle.frame,
                                                     max_relations=10)
    rows = [[r.cause, r.effect, r.rank_correlation, r.floor_monotonicity,
             r.suggested_slope] for r in relations]
    text = render_table(
        ["cause", "effect", "rho", "floor-mono", "slope"], rows,
        title=f"Discovered constraints ({dataset})", digits=3)
    _emit(text, out_dir, f"discovered_{dataset}.txt")


def _run_serve_demo(dataset, scale, seed, out_dir, artifact_dir, rows,
                    strategy_name=None, density_name=None,
                    density_backend=None, causal_name=None,
                    ensemble_size=None, workers=1, use_async=False):
    """Train-or-load an artifact, then serve a warm-start batch twice.

    Demonstrates the full serving loop: ensure a fresh artifact in the
    store (training only when missing/stale), warm-start an
    ExplanationService from disk, answer a batch, answer it again from
    the result cache, and report the cold/warm timings.  With
    ``--strategy`` the service serves that baseline strategy (fitted on
    the training split) on top of the warm-started pipeline instead of
    the core generator.  With ``--density`` the named estimator is
    fitted on the desired-class training rows, persisted next to the
    artifact and served from the warm start (``overlays={"density": "store"}``): the
    default core path then picks each row's counterfactual from a
    diverse candidate sweep by the Figure 3 proximity+density score,
    while single-candidate baseline strategies gain density scoring and
    density-fingerprinted caching without a selection change.  With
    ``--causal`` the named causal model is fitted on the training split,
    persisted next to the artifact and served from the warm start
    (``overlays={"causal": "store"}``): every served batch is causally repaired before
    validity/feasibility, whichever strategy answers it.  With
    ``--ensemble K`` a K-member black-box ensemble (the artifact's own
    model plus K-1 retrained variants) is trained, persisted next to the
    artifact and served from the warm start (``overlays={"ensemble": "store"}``):
    every served batch is scored against all members and quorum-robust
    candidates win selection.

    With ``--workers N`` (N > 1) or ``--async`` the same batch is
    additionally served through the scaled tier: a
    :class:`repro.serve.WorkerPool` of N warm replicas sharing one
    pipeline (one copy of the weights, one compiled execution state,
    consistent-hash routing), answered either as one routed batch call
    or — with ``--async`` — one row at a time through the
    :class:`repro.serve.AsyncExplanationService` coalescing front.  A
    per-replica stats table (requests, cache hit rate, mean coalesced
    batch size) from the pool-level ``stats()`` aggregation is printed
    below the timings.
    """
    import time

    from .core import fast_config
    from .serve import ArtifactStore, ExplanationService
    from .utils.tables import render_table

    store = ArtifactStore(artifact_dir)
    start = time.perf_counter()
    pipeline, was_cached = store.ensure(
        dataset, scale=scale, seed=seed, config=fast_config())
    ensure_seconds = time.perf_counter() - start
    name = store.default_name(dataset, pipeline.constraint_kind, seed)

    from .serve import load_bundle

    bundle = pipeline.bundle or load_bundle(dataset, scale=scale, seed=seed)
    x_test, _ = bundle.split("test")
    batch = x_test[:max(1, rows)]

    start = time.perf_counter()
    strategy = None
    if strategy_name is not None:
        from .engine import build_strategy

        strategy = build_strategy(
            strategy_name, pipeline.encoder, pipeline.blackbox,
            dataset=dataset, seed=seed)
        strategy.fit(*bundle.split("train"))
    fit_seconds = time.perf_counter() - start

    density = None
    fit_density_seconds = 0.0
    if density_name is not None:
        from .density import fit_class_density

        start = time.perf_counter()
        x_train, y_train = bundle.split("train")
        model = fit_class_density(
            density_name, x_train, y_train, bundle.schema.desired_class,
            vae=pipeline.explainer.generator.vae)
        store.save_overlay(name, "density", model)
        density = "store"  # prove the round trip: serve from disk state
        fit_density_seconds = time.perf_counter() - start

    causal = None
    fit_causal_seconds = 0.0
    if causal_name is not None:
        from .causal import fit_causal

        start = time.perf_counter()
        x_train, y_train = bundle.split("train")
        model = fit_causal(causal_name, pipeline.encoder, x_train, y_train)
        store.save_overlay(name, "causal", model)
        causal = "store"  # prove the round trip: serve from disk state
        fit_causal_seconds = time.perf_counter() - start

    ensemble = None
    fit_ensemble_seconds = 0.0
    if ensemble_size is not None:
        from .experiments import get_scale
        from .models import train_ensemble

        start = time.perf_counter()
        x_train, y_train = bundle.split("train")
        model = train_ensemble(
            x_train, y_train, n_members=ensemble_size, seed=seed,
            epochs=get_scale(scale).blackbox_epochs,
            include=pipeline.blackbox)
        store.save_overlay(name, "ensemble", model)
        ensemble = "store"  # prove the round trip: serve from disk state
        fit_ensemble_seconds = time.perf_counter() - start

    start = time.perf_counter()
    overlays = {
        kind: spec
        for kind, spec in (("density", density), ("causal", causal),
                           ("ensemble", ensemble))
        if spec is not None
    }
    if density_backend is not None and density_name is None:
        raise SystemExit(
            "--density-backend requires --density on serve-demo: there is "
            "no density overlay to re-index otherwise")
    service = ExplanationService.warm_start(
        store, name, strategy=strategy, overlays=overlays,
        density_backend=density_backend)
    result = service.explain_batch(batch)
    warm_seconds = time.perf_counter() - start

    start = time.perf_counter()
    service.explain_batch(batch)
    cached_seconds = time.perf_counter() - start

    stats = service.stats
    served = strategy_name or "core generator"
    if density_name is not None:
        served += f" + {density_name} density"
        if density_backend is not None:
            served += f" ({density_backend})"
    if causal_name is not None:
        served += f" + {causal_name} causal"
    if ensemble_size is not None:
        served += f" + K{ensemble_size} ensemble"
    table_rows = [
        ["ensure artifact", ensure_seconds,
         "cache hit" if was_cached else "cold train + save"],
        ["warm-start batch", warm_seconds,
         f"{len(batch)} rows, validity {result.validity_rate:.2f}"],
        ["cached batch", cached_seconds,
         f"{stats['cache_hits']} cache hits"],
    ]
    if ensemble_size is not None:
        table_rows.insert(1, ["fit + persist ensemble", fit_ensemble_seconds,
                              f"K{ensemble_size}, served from store state"])
    if causal_name is not None:
        table_rows.insert(1, ["fit + persist causal", fit_causal_seconds,
                              f"{causal_name}, served from store state"])
    if density_name is not None:
        table_rows.insert(1, ["fit + persist density", fit_density_seconds,
                              f"{density_name}, served from store state"])
    if strategy is not None:
        table_rows.insert(1, ["fit strategy", fit_seconds, served])

    pool_table = None
    if workers > 1 or use_async:
        from .serve import AsyncExplanationService, WorkerPool

        start = time.perf_counter()
        pool = WorkerPool(store, name, n_replicas=max(1, workers),
                          strategy=strategy, overlays=overlays)
        pool_warm_seconds = time.perf_counter() - start
        try:
            start = time.perf_counter()
            if use_async:
                import asyncio

                async def _serve_async():
                    front = AsyncExplanationService(pool)
                    results = await front.explain_many(batch)
                    await front.aclose()
                    return results

                async_results = asyncio.run(_serve_async())
                validity = (
                    sum(r["valid"] for r in async_results) / len(batch))
                mode = f"async front ({pool.n_replicas} replicas)"
            else:
                pool_result = pool.explain_batch(batch)
                validity = pool_result.validity_rate
                mode = f"pool batch ({pool.n_replicas} replicas)"
            pool_seconds = time.perf_counter() - start
            pool_stats = pool.stats()
        finally:
            pool.close()
        table_rows.append(
            ["warm-start pool", pool_warm_seconds,
             f"{pool.n_replicas} replicas"])
        table_rows.append(
            [mode, pool_seconds,
             f"{len(batch)} rows, validity {validity:.2f}"])
        replica_rows = [
            [entry["replica"], entry["requests"],
             f"{100 * entry['hit_rate']:.1f}%",
             round(entry["mean_batch_size"], 2)]
            for entry in pool_stats["per_replica"]
        ]
        aggregate = pool_stats["aggregate"]
        replica_rows.append(
            ["all", aggregate["requests"],
             f"{100 * aggregate['hit_rate']:.1f}%",
             round(aggregate["mean_batch_size"], 2)])
        pool_table = render_table(
            ["replica", "requests", "cache hit rate", "mean batch size"],
            replica_rows,
            title=f"POOL STATS ({aggregate['replicas']} replicas)")

    table = render_table(
        ["stage", "seconds", "detail"], table_rows,
        title=f"SERVE DEMO ({dataset}, artifact {name}, strategy {served})",
        digits=4)
    if pool_table is not None:
        table = f"{table}\n\n{pool_table}"
    _emit(table, out_dir, f"serve_demo_{dataset}.txt")


def _run_scenario(scenario_name, scale, seed, out_dir, density=None,
                  density_backend=None, causal=None, ensemble=None,
                  inloss=False):
    """Run one registered scenario and print its Table IV-style row.

    ``density`` / ``causal`` switch to the scenario's ``+<model>``
    registry variant (building an ad-hoc variant when none is
    registered, e.g. ``latent`` on a baseline — which then fails with
    the registry's clear error instead of a silent fallback); ``inloss``
    does the same for the ``+inloss`` six-part-objective variant.
    ``ensemble`` switches to the ``+robust`` variant, resized to K
    members when K differs from the registered default.
    ``density_backend`` overrides the scenario's neighbour backend (an
    ``@ann`` ad-hoc variant) without touching the registry.
    """
    import dataclasses

    from .engine import get_scenario, run_scenario
    from .utils.tables import render_table

    scenario = get_scenario(scenario_name)
    if inloss and not scenario.inloss:
        variant = f"{scenario.name}+inloss"
        try:
            scenario = get_scenario(variant)
        except KeyError:
            # ad-hoc variant; non-ours strategies fail with the
            # registry's clear validation error below
            from .engine.scenarios import register_scenario

            scenario = register_scenario(
                dataclasses.replace(scenario, name=variant, inloss=True))
    for field_name, wanted in (("density", density), ("causal", causal)):
        if wanted is None or getattr(scenario, field_name) == wanted:
            continue
        variant = f"{scenario.name}+{wanted}"
        try:
            scenario = get_scenario(variant)
        except KeyError:
            scenario = dataclasses.replace(
                scenario, name=variant, **{field_name: wanted})
    if density_backend is not None and scenario.density_backend != density_backend:
        scenario = dataclasses.replace(
            scenario, name=f"{scenario.name}@{density_backend}",
            density_backend=density_backend)
    if ensemble is not None and scenario.ensemble == 0:
        variant = f"{scenario.name}+robust"
        try:
            scenario = get_scenario(variant)
        except KeyError:
            scenario = dataclasses.replace(scenario, name=variant)
    if ensemble is not None and scenario.ensemble != ensemble:
        scenario = dataclasses.replace(scenario, ensemble=ensemble)
    result = run_scenario(scenario, scale=scale, seed=seed)
    report = result.report
    rows = [
        ["validity", report.validity],
        ["feasibility (unary)", report.feasibility_unary],
        ["feasibility (binary)", report.feasibility_binary],
        ["continuous proximity", report.continuous_proximity],
        ["categorical proximity", report.categorical_proximity],
        ["sparsity", report.sparsity],
        ["density (mean kNN dist)", report.mean_knn_distance],
        ["causal plausibility (%)", report.causal_plausibility],
        ["cross-model validity (%)", report.cross_model_validity],
        ["robust validity (%)", report.robust_validity],
        ["rows explained", result.n_explained],
        ["blackbox accuracy", result.blackbox_accuracy],
    ]
    text = render_table(
        ["metric", "value"],
        [[label, "-" if value is None else value] for label, value in rows],
        title=f"SCENARIO {scenario.name} (scale {scale})", digits=2)
    safe = scenario_file_name(scenario.name)
    _emit(text, out_dir, f"scenario_{safe}.txt")


def scenario_file_name(name):
    """Scenario name as a filesystem-safe artifact file stem."""
    return name.replace("/", "_")


def _run_list_scenarios(strategy, out_dir):
    """Print the scenario registry, optionally filtered by strategy."""
    from .engine import iter_scenarios
    from .utils.tables import render_table

    rows = [[s.name, s.dataset, s.strategy, s.constraint_kind,
             s.density or "-", s.causal or "-",
             f"K{s.ensemble}" if s.ensemble else "-",
             "six-part" if s.inloss else "-"]
            for s in iter_scenarios(strategy=strategy)]
    text = render_table(
        ["scenario", "dataset", "strategy", "kind", "density",
         "causal", "robust", "inloss"], rows,
        title=f"Scenario registry ({len(rows)} entries)")
    _emit(text, out_dir, "scenarios.txt")


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    out_dir = pathlib.Path(args.out) if args.out else None

    from .experiments import build_table1, build_table2, build_table3

    if args.command in ("table1", "all"):
        _emit(build_table1(scale=args.scale, seed=args.seed)[0],
              out_dir, "table1.txt")
    if args.command in ("table2", "all"):
        _emit(build_table2(n_features=9)[0], out_dir, "table2.txt")
    if args.command in ("table3", "all"):
        _emit(build_table3()[0], out_dir, "table3.txt")
    if args.command == "table4":
        _run_table4(args.dataset, args.scale, args.seed, out_dir)
    if args.command == "table5":
        _run_table5(args.dataset, args.scale, args.seed, out_dir)
    if args.command == "figure6":
        _run_figure6(args.dataset, args.scale, args.seed, out_dir)
    if args.command == "discover":
        _run_discover(args.dataset, args.scale, args.seed, out_dir)
    if args.command == "serve-demo":
        _run_serve_demo(args.dataset, args.scale, args.seed, out_dir,
                        args.artifact_dir, args.rows,
                        strategy_name=args.strategy,
                        density_name=args.density,
                        density_backend=args.density_backend,
                        causal_name=args.causal,
                        ensemble_size=args.ensemble,
                        workers=args.workers,
                        use_async=args.use_async)
    if args.command == "run-scenario":
        if args.scenario is None:
            print("run-scenario requires --scenario (see list-scenarios)")
            return 2
        _run_scenario(args.scenario, args.scale, args.seed, out_dir,
                      density=args.density,
                      density_backend=args.density_backend,
                      causal=args.causal,
                      ensemble=args.ensemble, inloss=args.inloss)
    if args.command == "list-scenarios":
        _run_list_scenarios(args.strategy, out_dir)
    if args.command == "all":
        for dataset in _DATASETS:
            _run_table4(dataset, args.scale, args.seed, out_dir)
            _run_figure6(dataset, args.scale, args.seed, out_dir)
        _run_table5("adult", args.scale, args.seed, out_dir)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
