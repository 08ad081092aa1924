"""Benchmark: one scenario per baseline strategy through the engine runner.

The matrix smoke proves every Table IV method still runs end to end on
the shared engine — one registered scenario per baseline strategy (all
six: Mahajan, REVISE, C-CHVAE, CEM, DiCE-random, FACE), fitted at a tiny
bench scale and timed on the explain path (``EngineRunner.run``), which
is the shape serving traffic takes.

It prints the section as JSON (per-strategy rows/sec and validity plus
the fleet minimum) and exits 1 when a validity floor
(:data:`VALIDITY_FLOORS`) is missed; the rates are informational.
Density variant rows (``<strategy>+<knn|kde>``
— the scenario registry's density-aware runner shape) and causal variant
rows (``<strategy>+<scm|mined>`` — the causal-repairing runner shape)
and robust variant rows (``<strategy>+robust`` — the ensemble-hosting
runner shape, every candidate scored against all K members) ride along
in the same section; the ``latent`` estimator needs a trained CF-VAE
and is covered by tier-1 tests instead of this smoke.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_scenario_matrix.py

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_scenario_matrix.py -q
"""

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.engine import EngineRunner, build_strategy  # noqa: E402
from repro.experiments import prepare_context  # noqa: E402
from repro.experiments.runconfig import ExperimentScale  # noqa: E402

#: The six baseline strategies of Table IV, with bench-scale knobs that
#: shrink fitting (never the explain path being timed).  The two
#: VAE-decoding methods need enough decoder epochs to land in the
#: desired class at all: below ~30 epochs Mahajan's unary decoder and
#: below ~10 epochs C-CHVAE's search decoder emit class-0 rows only
#: (0% validity on this workload) — :data:`VALIDITY_FLOORS` guards
#: against that regression.
BASELINE_MATRIX = (
    ("mahajan_unary", {"min_epochs": 50}),
    ("revise", {"vae_epochs": 5, "steps": 40}),
    ("cchvae", {"vae_epochs": 15, "n_candidates": 40}),
    ("cem", {"steps": 40}),
    ("dice_random", {"max_attempts": 20}),
    ("face", {}),
)

#: Density-aware variants timed on already-fitted strategies: the
#: engine runner hosts the named estimator (fitted on the desired-class
#: training rows).  Baselines propose single candidates, so hosting a
#: model adds the per-row density scoring of the Table IV column, not
#: candidate selection — the timed run requests diagnostics so that
#: scoring cost is actually on the clock.
DENSITY_VARIANTS = (
    ("face", "knn"),
    ("face", "kde"),
    ("dice_random", "knn"),
)

#: Causal-aware variants timed on already-fitted strategies: the engine
#: runner hosts the named causal model, so every proposed candidate
#: batch pays the repair pass between projection and feasibility.
CAUSAL_VARIANTS = (
    ("face", "scm"),
    ("dice_random", "scm"),
    ("dice_random", "mined"),
)

#: Robust variants timed on already-fitted strategies: the engine
#: runner hosts a K-member ensemble, so every proposed candidate pays
#: the fused cross-model validity scoring and quorum selection.
ROBUST_VARIANTS = (
    ("face", 4),
    ("dice_random", 4),
)

#: Validity floors (percent of explained rows) for the two VAE-decoding
#: methods: both sat at 0% on this workload when their decoders were
#: undertrained.
VALIDITY_FLOORS = {"mahajan_unary": 90.0, "cchvae": 50.0}

#: Tiny fixed workload so the matrix stays a smoke test.
BENCH_SCALE = ExperimentScale("scenario-bench", 1500, 24, 6)


def run_matrix(seed=0):
    """Fit and time every baseline scenario; returns the section dict."""
    from repro.causal import fit_causal
    from repro.density import fit_class_density
    from repro.models import train_ensemble

    context = prepare_context("adult", scale=BENCH_SCALE, seed=seed)
    encoder = context.bundle.encoder
    runner = EngineRunner(encoder, context.blackbox)

    def timed_run(run_runner, strategy):
        # diagnostics force the density/causal/ensemble scoring pass
        # (when hosted) into the timed window — the shape
        # runner.evaluate serves
        diagnostics = (run_runner.density is not None
                       or run_runner.causal is not None
                       or run_runner.ensemble is not None)
        run_runner.run(strategy, context.x_explain, context.desired)  # warm-up
        start = time.perf_counter()
        result = run_runner.run(
            strategy, context.x_explain, context.desired,
            return_diagnostics=diagnostics)
        explain_seconds = max(time.perf_counter() - start, 1e-9)
        if diagnostics:
            result = result[0]
        # validity and valid_rows both come from the timed run: stochastic
        # strategies (dice_random) would otherwise report two different runs
        return {
            "rows_per_sec": round(len(context.x_explain) / explain_seconds, 1),
            "validity": round(float(result.valid.mean()) * 100.0, 2),
            "valid_rows": int(np.count_nonzero(result.valid)),
        }

    strategies = {}
    fitted = {}
    for name, params in BASELINE_MATRIX:
        start = time.perf_counter()
        strategy = build_strategy(
            name, encoder, context.blackbox, dataset="adult", seed=seed,
            **params)
        strategy.fit(context.x_train, context.y_train)
        fit_seconds = time.perf_counter() - start
        fitted[name] = strategy

        strategies[name] = dict(timed_run(runner, strategy),
                                fit_seconds=round(fit_seconds, 3))

    for name, density_name in DENSITY_VARIANTS:
        model = fit_class_density(
            density_name, context.x_train, context.y_train,
            context.bundle.schema.desired_class)
        dense_runner = EngineRunner(encoder, context.blackbox, density=model)
        strategies[f"{name}+{density_name}"] = timed_run(
            dense_runner, fitted[name])

    for name, causal_name in CAUSAL_VARIANTS:
        model = fit_causal(
            causal_name, encoder, context.x_train, context.y_train)
        causal_runner = EngineRunner(encoder, context.blackbox, causal=model)
        strategies[f"{name}+{causal_name}"] = timed_run(
            causal_runner, fitted[name])

    ensembles = {}
    for name, n_members in ROBUST_VARIANTS:
        if n_members not in ensembles:
            ensembles[n_members] = train_ensemble(
                context.x_train, context.y_train, n_members=n_members,
                seed=seed, epochs=BENCH_SCALE.blackbox_epochs,
                include=context.blackbox)
        robust_runner = EngineRunner(
            encoder, context.blackbox, ensemble=ensembles[n_members])
        strategies[f"{name}+robust"] = timed_run(robust_runner, fitted[name])

    rates = [entry["rows_per_sec"] for entry in strategies.values()]
    return {
        "rows": len(context.x_explain),
        "n_strategies": len(strategies),
        "n_density_variants": len(DENSITY_VARIANTS),
        "n_causal_variants": len(CAUSAL_VARIANTS),
        "n_robust_variants": len(ROBUST_VARIANTS),
        "min_rows_per_sec": round(min(rates), 1),
        "strategies": strategies,
    }


def floor_failures(section):
    """One message per :data:`VALIDITY_FLOORS` entry the section misses."""
    return [
        f"{name} validity {section['strategies'][name]['validity']}% "
        f"is below its {floor}% floor"
        for name, floor in VALIDITY_FLOORS.items()
        if section["strategies"][name]["validity"] < floor
    ]


def test_scenario_matrix(artifact_dir):
    """Pytest entry: every baseline runs through the engine above its floor."""
    section = run_matrix(seed=0)
    assert section["n_strategies"] == (
        len(BASELINE_MATRIX) + len(DENSITY_VARIANTS) + len(CAUSAL_VARIANTS)
        + len(ROBUST_VARIANTS))
    assert section["min_rows_per_sec"] > 0
    assert floor_failures(section) == []
    artifact = artifact_dir / "bench_scenario_matrix.json"
    artifact.write_text(json.dumps(section, indent=2) + "\n")
    print(json.dumps(section, indent=2))


def main(argv=None):
    """Print the matrix; return 1 when a validity floor is missed."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    section = run_matrix(seed=args.seed)
    print(json.dumps(section, indent=2))
    failures = floor_failures(section)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
