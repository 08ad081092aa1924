"""End-to-end benchmark of the counterfactual engine.

Usage, from the repository root::

    python3 e2ebench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``fit`` -- cold "data -> black box -> CF-VAE -> Table IV row" for
  ``adult/ours_unary``, ``adult/revise`` and ``adult/ours_unary+inloss``;
* ``serve_stream`` -- one closed-loop client sending single-row
  ``explain_batch`` requests to a warm ``ExplanationService`` hosting
  knn density and SCM causal overlays;
* ``serve_async`` -- 32 closed-loop coroutine clients on
  ``AsyncExplanationService`` over a two-replica thread ``WorkerPool``.

``--trace 0`` measures with nothing patched and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced passes, prints
the per-layer metrics (see ``spans.py``) and the tracing overhead, and
checks that traced passes produce exactly the untraced outputs.  Both
modes check every output (``workloads.py``) and print, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of the first traced pass are written to
``e2ebench/.out/``.

Timings in the end-to-end metrics are scaled to a reference host speed
with the samples of ``hostspeed.py``: the shared hosts this runs on
drift in speed by 20-40% over seconds to minutes.  Each run also prints the
unscaled figures as ``# raw`` comment lines.

BLAS and OpenMP run single-threaded: on a two-core host the library's
small matrix products gain nothing from threads, and one thread keeps
the figures steady.  The process (and the child that builds the served
store) is pinned to one CPU: the serving replicas are threads that take
turns on the interpreter lock, which a second core does not speed up,
and handing that lock between cores made ``serve_async`` both slower
and less steady.
"""

from __future__ import annotations

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run that has not finished by then is ended without a result; the
#: process exits, so nothing it started outlives it.
HARD_LIMIT_S = 170

#: Layers whose outermost spans count as training in ``fit.train_share_pct``.
TRAIN_LAYERS = ("models.train_classifier", "core.cfvae_fit", "baselines.fit")
#: Per-layer values that are counts or ratios of counts: they must repeat
#: exactly on every traced pass.
EXACT_LAYERS = ("nn.backward_calls", "nn.optim_steps", "engine.run_calls",
                "serve.cache_lookups", "serve.cache_hit_pct", "engine.usable_pct",
                "serve.batch_rows", "serve.replica_max_share_pct")
#: End-to-end metrics scaled to the reference host speed (``hostspeed.py``).
SCALED_METRICS = ("setup_s", "wall_s", "rows_per_s", "accepted_per_s", "p50_ms", "p90_ms")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu():
    """Pin this process to the highest-numbered CPU it may use; return it."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1]) \
        if len(values) > 1 else float(values[0])


def run_passes(workload, seconds, tracer):
    """Set up, then run passes until ``seconds`` would be exceeded.

    Without a tracer a round is one pass, and a run ends after whole
    cycles of distinct passes, so every run of a workload times the same
    inputs (``fit``'s four training seeds) whatever its seed.  With one,
    a round is an untraced pass followed by a traced pass of the same
    input, and at least one round runs.  Timed set-ups
    (``workload.setups_per_round``) precede every round, so set-up times
    are sampled across the whole run, as pass times are.  Returns
    ``(setups, untraced, traced)``; set-ups are ``(start, stop)``
    readings, traced entries are ``(PassResult, span summary, per-pass
    counters)``.
    """
    clock = workload.clock
    setups, untraced, traced = [], [], []
    start = perf_counter()
    rounds = []
    while True:
        began = perf_counter()
        samples = len(clock.marks)
        for _ in range(workload.setups_per_round):
            workload.unload()
            # neither is the garbage of what came before a set-up's cost
            gc.collect()
            setup_began = perf_counter()
            workload.setup()
            setups.append((setup_began, perf_counter()))
        # the previous pass's garbage is not this pass's cost
        gc.collect()
        index = 0 if tracer is not None else len(untraced)
        untraced.append(workload.run_pass(index))
        if tracer is not None:
            since = tracer.mark()
            lookups, hits = tracer.lookups, tracer.hits
            with tracer:
                result = workload.run_pass(index, tracer)
            traced.append((result, tracer.summarize(since), {
                "lookups": tracer.lookups - lookups,
                "hits": tracer.hits - hits,
                "train_s": tracer.outermost_seconds(TRAIN_LAYERS, since),
                "probe_s": statistics.median(clock.probe_times()[samples:]),
            }))
            if len(traced) > 1:
                del tracer.spans[since:]  # only the first traced pass is written out
        rounds.append(perf_counter() - began)
        if tracer is None:
            whole, ahead = len(untraced) % workload.cycle == 0, workload.cycle
        else:
            whole, ahead = True, 1
        if whole and perf_counter() - start + ahead * statistics.median(rounds) > seconds:
            return setups, untraced, traced


def end_to_end(setups, passes, cycle, clock):
    """The end-to-end metrics of an untraced run.

    ``clock`` turns ``(start, stop)`` readings into seconds: scaled to
    the reference host speed, or raw.  Timings are medians over passes
    and set-ups, so a host slowdown during part of a run moves them
    less.  Latency percentiles are taken per pass when every pass has at
    least 100 samples (the serving traces) and over all passes pooled
    otherwise (``fit``: three scenarios per pass).  Quality is pooled
    over the first ``cycle`` passes (later passes repeat them).
    """
    walls = [clock(p.began, p.ended) for p in passes]
    latencies = [[clock(start, start + lat) for start, lat in zip(p.starts, p.latencies)]
                 for p in passes]
    if min(len(lats) for lats in latencies) >= 100:
        p50 = statistics.median(percentile(lats, 50) for lats in latencies)
        p90 = statistics.median(percentile(lats, 90) for lats in latencies)
    else:
        pooled = [lat for lats in latencies for lat in lats]
        p50, p90 = percentile(pooled, 50), percentile(pooled, 90)
    quality = [p.quality or (p.rows, p.valid, p.feasible, p.accepted) for p in passes[:cycle]]
    rows, valid, feasible, accepted = (sum(counts) for counts in zip(*quality))
    return {
        "setup_s": statistics.median(clock(*setup) for setup in setups),
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(p.rows / w for p, w in zip(passes, walls)),
        "accepted_per_s": statistics.median(p.accepted / w for p, w in zip(passes, walls)),
        "p50_ms": 1000.0 * p50,
        "p90_ms": 1000.0 * p90,
        "valid_pct": 100.0 * valid / rows,
        "feasible_pct": 100.0 * feasible / rows,
        "accepted_pct": 100.0 * accepted / rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(result, summary, counters):
    """The per-layer metrics of one traced pass."""

    def inclusive(layer):
        return summary.get(layer, {}).get("inclusive_s", 0.0)

    def self_time(layer):
        return summary.get(layer, {}).get("self_s", 0.0)

    def calls(layer):
        return summary.get(layer, {}).get("calls", 0)

    lookups = counters["lookups"]
    return {
        "data.load_s": inclusive("data.load"),
        "models.train_classifier_s": inclusive("models.train_classifier"),
        "core.warmstart_s": inclusive("core.warmstart"),
        "core.cfvae_fit_s": self_time("core.cfvae_fit"),
        "core.loss_s": inclusive("core.loss"),
        "nn.backward_s": inclusive("nn.backward"),
        "nn.backward_calls": calls("nn.backward"),
        "nn.optim_step_s": inclusive("nn.optim_step"),
        "nn.optim_steps": calls("nn.optim_step"),
        "baselines.fit_s": inclusive("baselines.fit"),
        "engine.propose_s": inclusive("engine.propose"),
        "engine.evaluate_s": inclusive("engine.evaluate"),
        "fit.train_share_pct": 100.0 * counters["train_s"] / result.wall_s,
        "serve.cache_hit_pct": 100.0 * counters["hits"] / lookups if lookups else 0.0,
        "serve.cache_lookups": lookups,
        "serve.cache_get_s": inclusive("serve.cache_get"),
        "engine.run_s": inclusive("engine.run"),
        "engine.run_calls": calls("engine.run"),
        "causal.repair_s": inclusive("causal.repair"),
        "density.score_s": inclusive("density.score"),
        "constraints.kernel_s": inclusive("constraints.kernel"),
        "models.predict_s": inclusive("models.predict"),
        "serve.explain_batch_self_s": self_time("serve.explain_batch"),
        "serve.queue_wait_ms": result.layer.get("queue_wait_ms", 0.0),
        "serve.batch_rows": result.layer.get("batch_rows", 0.0),
        "serve.flush_s": inclusive("serve.flush"),
        "core.generate_candidates_s": inclusive("core.generate_candidates"),
        "engine.usable_pct": result.layer.get("usable_pct", 0.0),
        "serve.replica_max_share_pct": result.layer.get("replica_max_share_pct", 0.0),
        "host.probe_ms": 1000.0 * counters["probe_s"],
    }


def check_passes(untraced, traced, cycle):
    """Run-level notes: pass ``i`` must repeat pass ``i - cycle`` exactly."""

    def same(a, b):
        return (a.digest, a.valid, a.feasible, a.accepted, a.layer.get("cache_hit_pct")) == \
            (b.digest, b.valid, b.feasible, b.accepted, b.layer.get("cache_hit_pct"))

    notes = []
    for index, result in enumerate(untraced):
        if not same(result, untraced[index % cycle]):
            notes.append(f"pass {index} differs from pass {index % cycle}")
        notes.extend(result.notes)
    for index, (result, _summary, _counters) in enumerate(traced):
        if not same(result, untraced[0]):
            notes.append(f"traced pass {index} differs from the untraced pass")
        notes.extend(result.notes)
    if traced:
        first = per_layer(*traced[0])
        for index, entry in enumerate(traced[1:], 1):
            values = per_layer(*entry)
            for name in EXACT_LAYERS:
                if values[name] != first[name]:
                    notes.append(f"traced pass {index}: {name} {values[name]} != {first[name]}")
        hit = untraced[0].layer.get("cache_hit_pct")
        if hit is not None and first["serve.cache_hit_pct"] != hit:
            notes.append("traced cache hit rate differs from the service's counters")
    return notes


def main(argv=None):
    args = parse_args(argv)
    faulthandler.dump_traceback_later(HARD_LIMIT_S, exit=True)
    cpu = pin_to_one_cpu()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    import numpy as np

    import repro.baselines  # noqa: F401  (registers every strategy class)
    import repro.experiments  # noqa: F401
    import repro.serve  # noqa: F401
    from hostspeed import REFERENCE_PROBE_S
    from spans import Tracer

    work_dir = HERE / ".work"
    out_dir = HERE / ".out"
    work_dir.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None

    with WORKLOADS[args.workload](ROOT, args.seed, work_dir) as workload:
        workload.prepare()
        with workload.clock:
            setups, untraced, traced = run_passes(workload, args.seconds, tracer)

    notes = check_passes(untraced, traced, workload.cycle)
    leftovers = [t.name for t in threading.enumerate() if t is not threading.main_thread()]
    if leftovers or multiprocessing.active_children():
        notes.append(f"still running after the run: threads {leftovers}, "
                     f"processes {multiprocessing.active_children()}")

    passes = untraced + [t[0] for t in traced]
    attempted = sum(p.rows for p in passes)
    failed = sum(len(p.failed_ops) for p in passes) + len(notes)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    raw = None
    if tracer is None:
        values = end_to_end(setups, untraced, workload.cycle, workload.clock.scaled)
        raw = end_to_end(setups, untraced, workload.cycle, workload.clock.raw)
        values["ok_pct"] = 100.0 * (attempted - min(failed, attempted)) / attempted
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        per_pass = [per_layer(*entry) for entry in traced]
        values = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        scaled = workload.clock.scaled
        values["trace.overhead_pct"] = 100.0 * (
            statistics.median(scaled(t[0].began, t[0].ended) for t in traced)
            / statistics.median(scaled(p.began, p.ended) for p in untraced) - 1.0)
        wanted = [m["name"] for m in spec["per_layer"]]
        tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    if sorted(values) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(wanted)}")

    faulthandler.cancel_dump_traceback_later()
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(untraced)}+{len(traced)} setups={len(setups)}")
    print(f"# nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']} "
          f"pinned_cpu={cpu}")
    print(f"# pass_s {' '.join(f'{p.wall_s:.4f}' for p in untraced)}")
    print(f"# setup_samples_s {' '.join(f'{b - a:.4f}' for a, b in setups)}")
    probes = workload.clock.probe_times()
    print(f"# host probe_ms median {1000 * statistics.median(probes):.3f} "
          f"min {1000 * min(probes):.3f} max {1000 * max(probes):.3f} "
          f"over {len(probes)} samples; reference {1000 * REFERENCE_PROBE_S:.3f}")
    for note in notes:
        print(f"# FAILED CHECK: {note}")
    for name in wanted:
        print(f"# {name:32s} {values[name]:.6g} {units[name]}")
    for name in SCALED_METRICS if raw else ():
        print(f"# raw {name:28s} {raw[name]:.6g} {units[name]} (unscaled)")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
