"""Engine throughput benchmark: train / predict / candidate generation.

This harness times the three hot paths the ROADMAP north-star cares
about ("as fast as the hardware allows"):

* **train** — black-box classifier training (autograd forward+backward
  +optimiser step), in rows/sec.
* **predict** — repeated request-sized ``BlackBoxClassifier.predict``
  calls (batch 16, the shape of per-request serving traffic), the
  validity-check path every explainer hammers, in rows/sec.  A second
  number covers the float32 fast mode when the engine supports it.
* **candidates** — the density sweep's ``generate_candidates`` (latent
  perturbation, batched decode, black-box validity, constraint
  feasibility), in input rows/sec and decoded candidates/sec.
* **serve** — cold-start (train + persist + answer a batch) vs
  warm-start (load the artifact store + answer the same batch) through
  :class:`repro.serve.ExplanationService`, plus the cache-hit replay
  rate.  Warm-start outputs are asserted bit-identical to the cold
  pipeline before any number is reported.
* **serve_scale** — the horizontally scaled tier
  (:class:`repro.serve.WorkerPool` behind consistent-hash routing) under
  a synthetic heavy-traffic single-row trace at 1, 2 and 4 replicas:
  sustained rows/sec plus per-request p50/p99 latency per replica
  count.  The workload pins the scaling mechanism this box can honestly
  measure — the working set exceeds one replica's LRU capacity but fits
  the pool's aggregate capacity at 4 replicas, so routed cache locality
  (not raw parallelism, which one core cannot provide) carries the
  speedup.  Single-replica async serving is asserted bit-identical to
  the synchronous service before timing, and 4 replicas must sustain
  >= 2x the single-replica rate.
* **constraint-eval** — the compiled feasibility kernel
  (:meth:`repro.constraints.ConstraintSet.compile`) against the
  per-constraint loop evaluator on a candidate-sweep feasibility report
  (AND-flags, per-kind rates, per-constraint rates).  The two outputs
  are asserted identical before timing, and the compiled path must hold
  a >= 3x speedup.
* **causal** — the batched causal repair
  (:meth:`repro.causal.CausalModel.repair_batch`: the full ``(n, m, d)``
  candidate sweep made causally consistent in ONE vectorized
  abduction-action-prediction pass) against the per-row ``_repair_loop``
  a pre-causal-layer stack would run per request.  Outputs are asserted
  bit-identical before timing and the batched path must hold a >= 3x
  speedup; the mined-relation model rides along as an informational
  rate.
* **robust** — the fused K-model ensemble scoring
  (:meth:`repro.models.BlackBoxEnsemble.predict_logits_all`: all K
  member forwards collapsed into ONE stacked GEMM + one einsum
  reduction) against the per-member ``predict_logits_loop`` a
  pre-ensemble stack would run per request.  The workload is the
  serving-request shape (batch 16) — the per-candidate robust-validity
  check ``EngineRunner(ensemble=)`` issues while answering one request
  — where fusing K member dispatches into one pays off; at large
  flattened sweeps the FLOPs are identical and the fused path holds no
  advantage.  Hard predictions are asserted bit-identical (logits agree
  to BLAS-blocking precision) before timing and the fused path must
  hold a >= 3x speedup.
* **plan** — the compiled :class:`repro.engine.ExplainPlan`
  (:meth:`repro.engine.EngineRunner.compile`: the fixed
  project/repair/validity/feasibility/select chain traced once and
  replayed as one fused sweep over the whole batch) against the
  per-request chain an uncoalesced serving stack runs (one
  ``EngineRunner.run`` call per row).  The workload is the C-CHVAE
  serving shape — a fixed 40-candidate sweep per row with a hosted SCM
  causal model — and the compiled path is asserted bit-identical to
  the batched ``EngineRunner.run`` before timing and must hold a >= 3x
  speedup over the per-request chain; the tiled float32 backend rides
  along as an informational rate.
* **density** — the batched density-aware selection
  (:meth:`repro.core.DensityCFSelector.select_batch`: ONE tiled density
  query + one vectorized score pass for the whole sweep) against the
  per-row loop the pre-density-layer selector ran (two score passes per
  row — one in ``select``, one for the diagnostics).  Outputs are
  asserted bit-identical before timing and the batched path must hold a
  >= 3x speedup; the tiled k-NN scorer and the KDE estimator ride along
  as informational rates.

* **inloss** — sample efficiency of the six-part in-objective training
  (:func:`repro.core.inloss_config`): candidates-needed-per-accepted-CF
  at a fixed ``n_candidates`` sweep, four-part post-hoc baseline vs
  in-loss training on a shared black-box, acceptance = valid AND
  feasible AND in-distribution (k-NN distance to the desired-class
  reference within a held-out quantile) AND causally plausible (SCM
  repair fixpoint).  Validity is asserted no
  worse than the baseline and the reduction must hold the
  :data:`MIN_INLOSS_REDUCTION` floor.

The workload is fixed per scale so numbers are comparable across
commits; ``PRE_PR_BASELINE`` pins the numbers measured with this exact
harness on the pre-fast-path engine (commit 55714a9), and the emitted
``BENCH_engine.json`` reports the speedup of the current tree against
that baseline.  Run it with::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py --scale smoke

which writes ``BENCH_engine.json`` at the repository root.
"""

from __future__ import annotations

import json
import platform
import time

import numpy as np

from ..core import FeasibleCFExplainer, fast_config
from ..core.selection import generate_candidates
from ..data import load_dataset
from ..models import BlackBoxClassifier, train_classifier

__all__ = ["INLOSS_CAUSAL_TOLERANCE", "INLOSS_DENSITY_QUANTILE",
           "MIN_ANN_RECALL", "MIN_ANN_SPEEDUP", "MIN_CAUSAL_SPEEDUP",
           "MIN_DENSITY_SPEEDUP", "MIN_INLOSS_REDUCTION",
           "MIN_KERNEL_SPEEDUP",
           "MIN_PLAN_SPEEDUP", "MIN_ROBUST_SPEEDUP",
           "MIN_SERVE_SCALE_SPEEDUP", "PERF_SCALES",
           "PRE_PR_BASELINE", "run_perfbench", "write_bench"]

#: Acceptance floor: the compiled feasibility kernel must beat the
#: per-constraint loop evaluator by at least this factor (the single
#: definition — the bench-runner gate imports it from here).
MIN_KERNEL_SPEEDUP = 3.0

#: Acceptance floor: the tiled density scorer must beat the per-row
#: query loop by at least this factor.
MIN_DENSITY_SPEEDUP = 3.0

#: Acceptance floor: the batched causal repair must beat the per-row
#: repair loop by at least this factor.
MIN_CAUSAL_SPEEDUP = 3.0

#: Acceptance floor: the fused K-model ensemble scoring must beat the
#: per-member prediction loop by at least this factor at the
#: serving-request batch shape.
MIN_ROBUST_SPEEDUP = 3.0

#: Acceptance floor: the compiled explain plan must beat the
#: per-request chain by at least this factor on the C-CHVAE serving
#: workload.
MIN_PLAN_SPEEDUP = 3.0

#: Acceptance floor: a 4-replica worker pool must sustain at least this
#: multiple of the single-replica rate on the cache-bound serving trace.
MIN_SERVE_SCALE_SPEEDUP = 2.0

#: Acceptance floor: the ANN density backend must beat the exact
#: cKDTree query rate by at least this factor at 100k+ reference rows
#: (the ``density_at_scale`` bench; smaller sizes are informational —
#: the IVF index only pulls ahead once the exact scan is memory-bound).
MIN_ANN_SPEEDUP = 5.0

#: Acceptance floor: measured recall@k of the ANN backend against the
#: exact neighbours, asserted *before* any timing is recorded — a fast
#: index that returns the wrong neighbours is a bug, not a win.
MIN_ANN_RECALL = 0.9

#: Acceptance floor: training with the in-objective density/causal
#: terms (the six-part loss) must cut candidates-needed-per-accepted-CF
#: by at least this factor against the post-hoc-only four-part baseline
#: at the same fixed ``n_candidates`` — the sample-efficiency claim of
#: the in-loss PR.
MIN_INLOSS_REDUCTION = 2.0

#: Density acceptance for the ``inloss`` section: a candidate counts as
#: in-distribution when its mean k-NN distance to the desired-class
#: reference is no worse than this quantile of *held-out* desired-class
#: rows' own scores (0.5 = at least as close to the manifold as the
#: median real desired-class row).
INLOSS_DENSITY_QUANTILE = 0.5

#: Causal acceptance for the ``inloss`` section: a candidate counts as
#: causally plausible when the SCM repair moves no coordinate by more
#: than this (in encoded [0, 1] units).
INLOSS_CAUSAL_TOLERANCE = 0.1

#: Workload definitions.  ``smoke`` finishes in well under a minute and is
#: what CI runs; ``full`` is for local trajectory tracking.
PERF_SCALES = {
    "smoke": {
        "n_instances": 1500,
        "train_rows": 512,
        "train_epochs": 6,
        "train_batch_size": 128,
        "predict_batch": 16,
        "candidate_rows": 32,
        "n_candidates": 16,
        "cf_epochs": 3,
        "serve_rows": 64,
        "constraint_rows": 64,
        "constraint_candidates": 24,
        "density_reference": 192,
        "density_rows": 96,
        "density_candidates": 16,
        "causal_rows": 96,
        "causal_candidates": 16,
        "robust_members": 8,
        "robust_batch": 16,
        "plan_rows": 48,
        "plan_candidates": 40,
        "serve_scale_rows": 64,
        "serve_scale_cache": 24,
        "serve_scale_passes": 6,
        "serve_scale_replicas": [1, 2, 4],
        "inloss_rows": 24,
        "inloss_candidates": 12,
        "inloss_epochs": 12,
        "min_seconds": 1.0,
    },
    "full": {
        "n_instances": 6000,
        "train_rows": 2048,
        "train_epochs": 10,
        "train_batch_size": 256,
        "predict_batch": 16,
        "candidate_rows": 96,
        "n_candidates": 24,
        "cf_epochs": 6,
        "serve_rows": 256,
        "constraint_rows": 128,
        "constraint_candidates": 32,
        "density_reference": 256,
        "density_rows": 192,
        "density_candidates": 16,
        "causal_rows": 192,
        "causal_candidates": 16,
        "robust_members": 8,
        "robust_batch": 16,
        "plan_rows": 96,
        "plan_candidates": 40,
        "serve_scale_rows": 128,
        "serve_scale_cache": 48,
        "serve_scale_passes": 8,
        "serve_scale_replicas": [1, 2, 4],
        "inloss_rows": 64,
        "inloss_candidates": 16,
        "inloss_epochs": 12,
        "min_seconds": 1.5,
    },
}

#: Throughput (rows/sec) measured with this harness at commit 55714a9,
#: i.e. before the fused-kernel / graph-free / vectorized-candidates
#: fast path landed.  These are the "before" numbers the acceptance
#: criterion compares against; they are overwritten only when the
#: harness workload itself changes.
PRE_PR_BASELINE = {
    "scale": "smoke",
    "train_rows_per_sec": 580000.0,
    "predict_rows_per_sec": 632200.0,
    "candidate_rows_per_sec": 6230.0,
    "candidates_per_sec": 99700.0,
}


def _throughput(fn, rows_per_call, min_seconds, chunks=5, min_calls=3):
    """Peak rows/sec over ``chunks`` timing windows.

    Reporting the best window (like ``timeit.repeat`` + ``min``) filters
    transient interference — host steal time, GC pauses — that would
    otherwise swing single-window numbers by 30% on shared machines.
    """
    fn()  # warm-up (first-call allocations, caches)
    best = 0.0
    total_calls = 0
    window = max(min_seconds / chunks, 0.05)
    for _ in range(chunks):
        calls = 0
        start = time.perf_counter()
        elapsed = 0.0
        while calls < min_calls or elapsed < window:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
        best = max(best, calls * rows_per_call / elapsed)
        total_calls += calls
    return best, total_calls


def _float32_predict_rate(blackbox, batch, min_seconds, seed):
    """Predict throughput in the float32 fast mode (None if unsupported).

    Clones the trained classifier into float32 parameters
    (``load_state_dict`` casts to the target dtype, and ``state_dict``
    includes frozen parameters) and feeds it a float32 batch, i.e. the
    recommended serving configuration.  Returns ``None`` on engines
    without a dtype mode so the harness also runs against the
    pre-fast-path code.
    """
    try:
        from ..nn import dtype_scope
    except ImportError:
        return None
    from ..models import BlackBoxClassifier as _BlackBox

    with dtype_scope("float32"):
        fast = _BlackBox(blackbox.n_features, np.random.default_rng(seed),
                         hidden=blackbox.hidden)
    fast.load_state_dict(blackbox.state_dict())
    fast.eval()
    batch32 = batch.astype(np.float32)
    disagree = fast.predict(batch32) != blackbox.predict(batch)
    if np.any(disagree & (np.abs(blackbox.predict_logits(batch)) > 1e-4)):
        raise AssertionError("float32 fast mode changed hard predictions")

    def predict_once():
        fast.predict(batch32)

    rate, _ = _throughput(predict_once, len(batch32), min_seconds)
    return rate


def _feasibility_report_loop(encoder, constraints, x, x_cf, m):
    """The pre-engine feasibility workload, per explained candidate sweep.

    Exactly what the stack did before the compiled kernel existed to
    produce one batch's feasibility report: materialise the repeated
    input matrix, AND-flags via the per-constraint loop, rebuild one
    constraint set per kind for the Table IV rates, and one more
    evaluation per constraint for the per-constraint rates.  Kept as the
    throughput *and* parity reference the compiled path is compared
    against.
    """
    from ..constraints import build_constraints
    from ..metrics.scores import feasibility_score

    inputs = np.repeat(x, m, axis=0)
    flags = constraints.satisfied(inputs, x_cf)
    kind_rates = {
        kind: feasibility_score(build_constraints(encoder, kind), inputs, x_cf)
        for kind in ("unary", "binary")
    }
    per_constraint = {
        constraint.name: constraint.satisfaction_rate(inputs, x_cf)
        for constraint in constraints
    }
    return flags, kind_rates, per_constraint


def _constraint_eval_section(bundle, spec, min_seconds, seed):
    """Time the compiled feasibility kernel against the loop evaluator.

    The workload is the engine's hot shape: a feasibility report
    (AND-flags + per-kind rates + per-constraint rates) for
    ``constraint_rows`` inputs with ``constraint_candidates`` decoded
    candidates each.  Outputs are asserted identical before timing, and
    the section refuses to report a speedup below the 3x acceptance
    floor.
    """
    from ..constraints import build_constraints

    encoder = bundle.encoder
    n = spec["constraint_rows"]
    m = spec["constraint_candidates"]
    x = bundle.encoded[:n]
    rng = np.random.default_rng(seed + 77)
    x_cf = np.clip(
        np.repeat(x, m, axis=0) + rng.normal(0.0, 0.05, (n * m, x.shape[1])),
        0.0, 1.0)

    constraints = build_constraints(encoder, "binary")
    kernel = constraints.compile()
    kind_members = {
        kind: [kernel.index_of(c.name)
               for c in build_constraints(encoder, kind)]
        for kind in ("unary", "binary")
    }

    def compiled_report():
        report = kernel.evaluate(x, x_cf)
        kind_rates = {kind: report.subset_rate(indices) * 100.0
                      for kind, indices in kind_members.items()}
        return report.satisfied, kind_rates, report.per_constraint_rates

    flags_loop, kinds_loop, per_loop = _feasibility_report_loop(
        encoder, constraints, x, x_cf, m)
    flags_fast, kinds_fast, per_fast = compiled_report()
    if not np.array_equal(flags_loop, flags_fast) or kinds_loop != kinds_fast \
            or per_loop != per_fast:
        raise AssertionError(
            "compiled feasibility kernel diverges from the loop evaluator")

    loop_rate, loop_calls = _throughput(
        lambda: _feasibility_report_loop(encoder, constraints, x, x_cf, m),
        n, min_seconds)
    fast_rate, fast_calls = _throughput(compiled_report, n, min_seconds)
    speedup = fast_rate / loop_rate
    if speedup < MIN_KERNEL_SPEEDUP:
        raise AssertionError(
            f"compiled kernel speedup {speedup:.2f}x is below the "
            f"{MIN_KERNEL_SPEEDUP}x floor")

    return {
        "rows": n,
        "n_candidates": m,
        "constraints": len(constraints),
        "rows_per_sec": round(fast_rate, 1),
        "rows_per_sec_loop": round(loop_rate, 1),
        "candidates_per_sec": round(fast_rate * m, 1),
        "speedup_compiled_vs_loop": round(speedup, 2),
        "calls": fast_calls + loop_calls,
    }


def _density_section(explainer, bundle, spec, min_seconds, seed):
    """Time batched density-aware selection against the per-row loop.

    The workload is the Figure 3 selection stage on a real candidate
    sweep: ``density_rows`` inputs x ``density_candidates`` generated
    candidates each, scored against a ``density_reference``-row k-NN
    estimator.  The loop reference is the historical selector path
    (two score passes per row — exactly what ``DensityCFSelector.explain``
    ran before the density layer); the batched path is ONE tiled density
    query plus one vectorized combined-score pass.  Outputs are asserted
    bit-identical before timing and the batched path must hold the 3x
    acceptance floor; the tiled scorer alone and the KDE estimator ride
    along as informational rates.
    """
    from ..core.selection import DensityCFSelector, generate_candidates
    from ..density import GaussianKdeDensity, KnnDensity

    n = spec["density_rows"]
    m = spec["density_candidates"]
    reference = bundle.encoded[:spec["density_reference"]]
    model = KnnDensity(k_neighbors=10).fit(reference)
    selector = DensityCFSelector(
        explainer, density_weight=2.0, density_model=model)

    x = bundle.encoded[:n]
    candidate_sets = generate_candidates(
        explainer, x, n_candidates=m, rng=np.random.default_rng(seed + 500))
    sweep = np.stack([cs.candidates for cs in candidate_sets])

    x_cf_fast, diag_fast = selector.select_batch(candidate_sets)
    x_cf_loop, diag_loop = selector._select_loop(candidate_sets)
    if not np.array_equal(x_cf_fast, x_cf_loop) or diag_fast != diag_loop:
        raise AssertionError(
            "batched density selection diverges from the per-row loop")
    if not np.array_equal(model.score_tiled(sweep), model.score_tiled_loop(sweep)):
        raise AssertionError(
            "tiled density scorer diverges from the per-row query loop")

    loop_rate, loop_calls = _throughput(
        lambda: selector._select_loop(candidate_sets), n, min_seconds)
    fast_rate, fast_calls = _throughput(
        lambda: selector.select_batch(candidate_sets), n, min_seconds)
    speedup = fast_rate / loop_rate
    if speedup < MIN_DENSITY_SPEEDUP:
        raise AssertionError(
            f"batched density-selection speedup {speedup:.2f}x is below "
            f"the {MIN_DENSITY_SPEEDUP}x floor")

    tiled_rate, _ = _throughput(lambda: model.score_tiled(sweep), n, min_seconds)
    kde = GaussianKdeDensity().fit(reference)
    kde_rate, _ = _throughput(lambda: kde.score_tiled(sweep), n, min_seconds)

    return {
        "rows": n,
        "n_candidates": m,
        "n_reference": len(reference),
        "rows_per_sec": round(fast_rate, 1),
        "rows_per_sec_loop": round(loop_rate, 1),
        "candidates_per_sec": round(fast_rate * m, 1),
        "speedup_batched_vs_loop": round(speedup, 2),
        "tiled_scorer_rows_per_sec": round(tiled_rate, 1),
        "kde_rows_per_sec": round(kde_rate, 1),
        "calls": fast_calls + loop_calls,
    }


def _causal_section(bundle, spec, min_seconds, seed):
    """Time the batched causal repair against the per-row loop.

    The workload is the engine's repair shape: ``causal_rows`` inputs
    with ``causal_candidates`` perturbed candidates each, repaired by
    the dataset's :class:`repro.causal.ScmCausalModel` (one
    abduction-action-prediction pass) — exactly what
    ``EngineRunner(causal=)`` inserts between immutable projection and
    the feasibility kernel.  Outputs are asserted bit-identical before
    timing and the batched path must hold the 3x acceptance floor; the
    mined-relation model rides along as an informational rate.
    """
    from ..causal import MinedCausalModel, ScmCausalModel

    n = spec["causal_rows"]
    m = spec["causal_candidates"]
    x = bundle.encoded[:n]
    rng = np.random.default_rng(seed + 900)
    candidates = np.clip(
        x[:, None, :] + rng.normal(0.0, 0.08, (n, m, x.shape[1])), 0.0, 1.0)

    model = ScmCausalModel(bundle.encoder).fit(x)
    repaired_fast = model.repair_batch(x, candidates)
    repaired_loop = model._repair_loop(x, candidates)
    if not np.array_equal(repaired_fast, repaired_loop):
        raise AssertionError(
            "batched causal repair diverges from the per-row loop")

    loop_rate, loop_calls = _throughput(
        lambda: model._repair_loop(x, candidates), n, min_seconds)
    fast_rate, fast_calls = _throughput(
        lambda: model.repair_batch(x, candidates), n, min_seconds)
    speedup = fast_rate / loop_rate
    if speedup < MIN_CAUSAL_SPEEDUP:
        raise AssertionError(
            f"batched causal-repair speedup {speedup:.2f}x is below the "
            f"{MIN_CAUSAL_SPEEDUP}x floor")

    x_train, y_train = bundle.split("train")
    mined = MinedCausalModel(bundle.encoder).fit(x_train, y_train)
    mined_rate, _ = _throughput(
        lambda: mined.repair_batch(x, candidates), n, min_seconds)

    return {
        "rows": n,
        "n_candidates": m,
        "equations": len(model.equations),
        "rows_per_sec": round(fast_rate, 1),
        "rows_per_sec_loop": round(loop_rate, 1),
        "candidates_per_sec": round(fast_rate * m, 1),
        "speedup_batched_vs_loop": round(speedup, 2),
        "mined_rows_per_sec": round(mined_rate, 1),
        "mined_relations": len(mined.relations),
        "calls": fast_calls + loop_calls,
    }


def _robust_section(bundle, spec, min_seconds, seed):
    """Time the fused K-model ensemble scoring against the member loop.

    The workload is the serving-request shape: one ``robust_batch``-row
    validity check against all ``robust_members`` ensemble members —
    what ``EngineRunner(ensemble=)`` issues per explained request and
    the rollover migration issues per cached entry.  The batch is kept
    request-sized deliberately: the fused path wins by collapsing K
    Python/dispatch round trips into one stacked GEMM, an advantage
    that exists at small batches and vanishes on large flattened sweeps
    where the identical FLOPs dominate.  Hard predictions are asserted
    bit-identical before timing (raw logits agree only to BLAS-blocking
    precision, like the float32 fast mode above) and the fused path
    must hold the 3x acceptance floor; the per-row agreement scoring
    rides along as an informational rate.
    """
    from ..models import train_ensemble

    k = spec["robust_members"]
    batch = np.ascontiguousarray(bundle.encoded[:spec["robust_batch"]])
    x_train, y_train = bundle.split("train")
    ensemble = train_ensemble(
        x_train[:spec["train_rows"]], y_train[:spec["train_rows"]],
        n_members=k, seed=seed, epochs=spec["train_epochs"],
        batch_size=spec["train_batch_size"])

    logits_fused = ensemble.predict_logits_all(batch)
    logits_loop = ensemble.predict_logits_loop(batch)
    if not np.array_equal(logits_fused > 0.0, logits_loop > 0.0):
        raise AssertionError(
            "fused ensemble scoring changed hard predictions")
    if not np.allclose(logits_fused, logits_loop, atol=1e-9):
        raise AssertionError(
            "fused ensemble logits diverge from the per-member loop "
            "beyond BLAS-blocking precision")

    loop_rate, loop_calls = _throughput(
        lambda: ensemble.predict_logits_loop(batch), len(batch), min_seconds)
    fast_rate, fast_calls = _throughput(
        lambda: ensemble.predict_logits_all(batch), len(batch), min_seconds)
    speedup = fast_rate / loop_rate
    if speedup < MIN_ROBUST_SPEEDUP:
        raise AssertionError(
            f"fused ensemble-scoring speedup {speedup:.2f}x is below the "
            f"{MIN_ROBUST_SPEEDUP}x floor")

    desired = 1 - ensemble.predict(batch)
    agreement_rate, _ = _throughput(
        lambda: ensemble.agreement(batch, desired), len(batch), min_seconds)

    return {
        "rows": len(batch),
        "n_members": k,
        "rows_per_sec": round(fast_rate, 1),
        "rows_per_sec_loop": round(loop_rate, 1),
        "model_rows_per_sec": round(fast_rate * k, 1),
        "speedup_fused_vs_loop": round(speedup, 2),
        "agreement_rows_per_sec": round(agreement_rate, 1),
        "calls": fast_calls + loop_calls,
    }


class _FixedSweepStrategy:
    """Bench strategy replaying a fixed per-row candidate sweep.

    The C-CHVAE growing-sphere search proposes through one sequential
    RNG, which makes its *propose* stage inherently per-request; what a
    plan can fuse is everything downstream of proposal.  This strategy
    pins exactly that workload: a precomputed ``(m, d)`` sweep per row,
    looked up by row bytes, so propose is O(1) and the timed difference
    between the compiled and per-request paths is the chain itself
    (projection, causal repair, validity, feasibility, selection) — not
    proposal cost.
    """

    name = "fixed_sweep"

    def __init__(self, sweeps):
        self._sweeps = {row.tobytes(): sweep for row, sweep in sweeps}

    def fit(self, x_train, y_train=None):
        return self

    def propose(self, x, desired=None):
        from ..engine import CandidateBatch

        candidates = np.stack([self._sweeps[row.tobytes()] for row in x])
        return CandidateBatch(x, np.asarray(desired, dtype=int), candidates)

    def describe(self):
        return {"class": type(self).__name__, "name": self.name,
                "rows": len(self._sweeps)}

    def fingerprint(self):
        import hashlib
        import json as _json

        canonical = _json.dumps(self.describe(), sort_keys=True,
                                separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _plan_section(explainer, bundle, spec, min_seconds, seed):
    """Time the compiled explain plan against the per-request chain.

    The workload is the C-CHVAE serving shape: ``plan_rows`` requests,
    each carrying a fixed ``plan_candidates``-candidate sweep (the
    baseline's ``n_candidates=40`` matrix shape), answered by a runner
    hosting the dataset's SCM causal model — so every request runs the
    full projection + causal repair + validity + feasibility +
    selection chain.  The loop reference issues one
    ``EngineRunner.run`` per request, exactly the uncoalesced serving
    shape; the compiled path replays ONE fused ``ExplainPlan.execute``
    over the whole batch.  A density estimator is deliberately NOT
    hosted here: the k-NN query costs per *point* (cKDTree), so it
    neither amortises across requests nor measures what the plan fuses
    — its batched-vs-loop story is the gated ``density`` section.

    The compiled path is asserted bit-identical to the *batched*
    ``EngineRunner.run`` before timing (the parity suite pins both
    against the staged reference per strategy and dataset).  Per-request
    results are
    additionally sanity-checked to agree on nearly every row — they may
    drift from the batch on selection near-ties because the validity
    GEMM's BLAS blocking changes with batch shape, the same caveat every
    batched-vs-loop section documents.  The compiled path must hold the
    3x acceptance floor; the tiled float32 backend rides along as an
    informational rate.
    """
    from ..causal import ScmCausalModel
    from ..engine import EngineRunner

    n = spec["plan_rows"]
    m = spec["plan_candidates"]
    x = np.ascontiguousarray(bundle.encoded[:n])
    rng = np.random.default_rng(seed + 1300)
    sweep = np.clip(
        x[:, None, :] + rng.normal(0.0, 0.08, (n, m, x.shape[1])), 0.0, 1.0)
    strategy = _FixedSweepStrategy(zip(x, sweep))
    desired = 1 - explainer.blackbox.predict(x)

    x_train, _ = bundle.split("train")
    causal = ScmCausalModel(bundle.encoder).fit(x_train)
    runner = EngineRunner(bundle.encoder, explainer.blackbox, causal=causal)
    plan = runner.compile(strategy)

    result_batch = runner.run(strategy, x, desired)
    result_plan = plan.execute(x, desired)
    for field in ("x_cf", "predicted", "valid", "feasible"):
        if not np.array_equal(getattr(result_plan, field),
                              getattr(result_batch, field)):
            raise AssertionError(
                f"compiled plan diverges from the batched run on {field}")

    def per_request():
        parts = [
            runner.run(strategy, x[i:i + 1], desired[i:i + 1]).x_cf
            for i in range(n)
        ]
        return np.concatenate(parts)

    per_request_cf = per_request()
    row_match = float((per_request_cf == result_batch.x_cf).all(axis=1).mean())
    if row_match < 0.9:
        raise AssertionError(
            f"per-request chain agrees with the batch on only "
            f"{row_match:.0%} of rows — more than near-tie drift")

    loop_rate, loop_calls = _throughput(per_request, n, min_seconds)
    fast_rate, fast_calls = _throughput(
        lambda: plan.execute(x, desired), n, min_seconds)
    speedup = fast_rate / loop_rate
    if speedup < MIN_PLAN_SPEEDUP:
        raise AssertionError(
            f"compiled plan speedup {speedup:.2f}x over the per-request "
            f"chain is below the {MIN_PLAN_SPEEDUP}x floor")

    plan32 = runner.compile(strategy, backend="float32")
    if not np.array_equal(plan32.execute(x, desired).predicted,
                          result_batch.predicted):
        raise AssertionError(
            "float32 plan backend changed hard validity predictions")
    f32_rate, _ = _throughput(
        lambda: plan32.execute(x, desired), n, min_seconds)

    return {
        "rows": n,
        "n_candidates": m,
        "stages": [stage.name for stage in plan.stages],
        "rows_per_sec": round(fast_rate, 1),
        "rows_per_sec_loop": round(loop_rate, 1),
        "candidates_per_sec": round(fast_rate * m, 1),
        "speedup_compiled_vs_requests": round(speedup, 2),
        "per_request_row_agreement": round(row_match, 4),
        "float32_rows_per_sec": round(f32_rate, 1),
        "calls": fast_calls + loop_calls,
    }


def _inloss_section(bundle, spec, seed):
    """Measure sample efficiency of in-objective (six-part) training.

    The claim under test is the in-loss PR's acceptance bar: pulling the
    density and causal criteria *into the training objective* should
    mean far fewer decoded candidates are burned per accepted
    counterfactual at serving time, because the generator already
    decodes into dense, causally consistent regions instead of relying
    on post-hoc filtering alone.

    Two explainers share ONE black-box (so validity judgments are
    identical) and differ only in the training objective: the four-part
    post-hoc baseline vs the six-part ``inloss_config`` objective.  Both
    explain the same undesired-class test rows with the same fixed
    ``inloss_candidates`` latent sweep, and a candidate is *accepted*
    when it is valid, feasible, at least as close to the desired-class
    manifold (mean k-NN distance) as the
    :data:`INLOSS_DENSITY_QUANTILE` quantile of held-out desired-class
    rows, and survives SCM repair within
    :data:`INLOSS_CAUSAL_TOLERANCE` — the full post-hoc acceptance
    stack.  The gated metric is ``reduction_vs_posthoc = baseline
    candidates-per-accepted / in-loss candidates-per-accepted``,
    asserted to hold the :data:`MIN_INLOSS_REDUCTION` floor; black-box
    validity is asserted no worse than the baseline before any number
    is reported.  When a run accepts *nothing*, its
    candidates-per-accepted is reported as the sweep size — a lower
    bound ("needed more candidates than the whole sweep"), flagged by
    ``accepted == 0`` in the section payload.
    """
    from ..causal import ScmCausalModel
    from ..core import inloss_config
    from ..density import KnnDensity

    n = spec["inloss_rows"]
    m = spec["inloss_candidates"]
    x_train, y_train = bundle.split("train")
    x_train = x_train[:spec["train_rows"]]
    y_train = y_train[:spec["train_rows"]]

    base_config = fast_config(epochs=spec["inloss_epochs"])
    baseline = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary", config=base_config,
        seed=seed)
    baseline.fit(x_train, y_train, blackbox_epochs=spec["train_epochs"])
    inloss = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=inloss_config(base_config), blackbox=baseline.blackbox,
        seed=seed)
    inloss.fit(x_train, y_train)

    desired_class = int(bundle.schema.desired_class)
    x_test, _ = bundle.split("test")
    rows = x_test[baseline.blackbox.predict(x_test) != desired_class][:n]
    if len(rows) == 0:
        raise AssertionError(
            "inloss workload found no undesired-class test rows")

    reference = x_train[np.asarray(y_train) == desired_class]
    knn = KnnDensity(k_neighbors=8).fit(reference)
    heldout = x_test[np.asarray(bundle.split("test")[1]) == desired_class]
    threshold = float(np.quantile(
        knn.score(heldout), INLOSS_DENSITY_QUANTILE))
    causal = ScmCausalModel(bundle.encoder).fit(x_train)

    def acceptance(explainer):
        sets = generate_candidates(
            explainer, rows, n_candidates=m,
            rng=np.random.default_rng(seed + 4242))
        sweep = np.stack([cs.candidates for cs in sets])
        usable = np.stack([cs.usable_mask for cs in sets])
        flat = sweep.reshape(-1, sweep.shape[-1])
        dense = (knn.score(flat) <= threshold).reshape(usable.shape)
        repaired = causal.repair_batch(rows, sweep)
        plausible = (np.abs(repaired - sweep).max(axis=-1)
                     <= INLOSS_CAUSAL_TOLERANCE)
        accepted = usable & dense & plausible
        validity = float(
            np.stack([cs.valid for cs in sets]).any(axis=1).mean())
        n_accepted = int(accepted.sum())
        return {
            "accepted": n_accepted,
            "candidates_per_accepted": round(
                accepted.size / max(n_accepted, 1), 2),
            "accepted_rate": round(n_accepted / accepted.size, 4),
            "rows_with_accepted_cf": round(
                float(accepted.any(axis=1).mean()), 4),
            "validity": round(validity, 4),
        }

    posthoc = acceptance(baseline)
    sixpart = acceptance(inloss)
    if sixpart["validity"] < posthoc["validity"]:
        raise AssertionError(
            f"in-loss training dropped validity: "
            f"{sixpart['validity']:.2%} vs {posthoc['validity']:.2%}")
    reduction = (posthoc["candidates_per_accepted"]
                 / sixpart["candidates_per_accepted"])
    if reduction < MIN_INLOSS_REDUCTION:
        raise AssertionError(
            f"in-loss candidates-per-accepted reduction {reduction:.2f}x "
            f"is below the {MIN_INLOSS_REDUCTION}x floor "
            f"({posthoc['candidates_per_accepted']} -> "
            f"{sixpart['candidates_per_accepted']} candidates per "
            f"accepted CF)")

    return {
        "rows": len(rows),
        "n_candidates": m,
        "epochs": spec["inloss_epochs"],
        "density_quantile": INLOSS_DENSITY_QUANTILE,
        "causal_tolerance": INLOSS_CAUSAL_TOLERANCE,
        "posthoc": posthoc,
        "inloss": sixpart,
        "reduction_vs_posthoc": round(reduction, 2),
    }


def _serve_section(spec, seed):
    """Time cold-start vs warm-start serving on the bench workload.

    Cold start = train the full pipeline, persist it to an artifact
    store and answer one ``serve_rows`` batch (what a process without an
    artifact must do).  Warm start = rebuild the service from the store
    and answer the same batch.  The cache-hit replay answers it a second
    time from the LRU cache.  A density-aware warm start (k-NN state
    persisted next to the artifact, served via ``overlays={"density": "store"}``)
    rides along to prove the paper's density criterion survives a
    process restart.
    """
    import tempfile

    from ..density import fit_class_density
    from ..serve import ArtifactStore, ExplanationService, train_pipeline
    from .runconfig import ExperimentScale

    scale = ExperimentScale(
        "perfbench", spec["n_instances"], spec["serve_rows"],
        spec["train_epochs"])
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)

        start = time.perf_counter()
        pipeline = train_pipeline(
            "adult", scale=scale, seed=seed,
            config=fast_config(epochs=spec["cf_epochs"]))
        store.save(pipeline, name="bench")
        x_test, _ = pipeline.bundle.split("test")
        rows = x_test[:spec["serve_rows"]]
        cold_result = ExplanationService(pipeline, cache_size=0).explain_batch(rows)
        cold_seconds = time.perf_counter() - start

        start = time.perf_counter()
        service = ExplanationService.warm_start(store, "bench")
        warm_result = service.explain_batch(rows)
        warm_seconds = time.perf_counter() - start
        if not np.array_equal(cold_result.x_cf, warm_result.x_cf):
            raise AssertionError(
                "warm-start counterfactuals diverge from the cold pipeline")

        start = time.perf_counter()
        service.explain_batch(rows)
        cached_seconds = max(time.perf_counter() - start, 1e-9)

        # density-aware warm start: persist fitted k-NN state, rebuild the
        # service from disk and serve the batch density-selected
        x_train, y_train = pipeline.bundle.split("train")
        density = fit_class_density(
            "knn", x_train, y_train, pipeline.bundle.schema.desired_class,
            k_neighbors=8)
        store.save_overlay("bench", "density", density)
        start = time.perf_counter()
        dense_service = ExplanationService.warm_start(
            store, "bench", overlays={"density": "store"})
        dense_result = dense_service.explain_batch(rows)
        warm_density_seconds = time.perf_counter() - start
        if dense_result.x_cf.shape != warm_result.x_cf.shape:
            raise AssertionError("density-aware warm start lost rows")

    return {
        "rows": len(rows),
        "cold_start_seconds": round(cold_seconds, 4),
        "warm_start_seconds": round(warm_seconds, 4),
        "speedup_cold_vs_warm": round(cold_seconds / warm_seconds, 1),
        "warm_rows_per_sec": round(len(rows) / warm_seconds, 1),
        "cache_hit_rows_per_sec": round(len(rows) / cached_seconds, 1),
        "warm_density_seconds": round(warm_density_seconds, 4),
        "warm_density_rows_per_sec": round(
            len(rows) / max(warm_density_seconds, 1e-9), 1),
    }


def _serve_scale_section(spec, seed, replica_counts=None):
    """Time the scaled worker pool on a cache-bound single-row trace.

    The workload replays ``serve_scale_passes`` cyclic passes over
    ``serve_scale_rows`` distinct requests, one row at a time — the
    shape of heavy per-request traffic.  Each replica's LRU cache holds
    only ``serve_scale_cache`` rows, chosen so ONE replica cannot fit
    the working set (a cyclic scan over an LRU it doesn't fit is the
    worst case: every request misses) while the pool's *aggregate*
    capacity at 4 replicas can.  Consistent-hash routing pins each row
    to one replica, so scaling out grows effective cache capacity and
    the trace turns into hits — the mechanism by which replicas pay off
    on this single-core box, where raw compute parallelism cannot.

    Before any timing, single-replica async serving
    (:class:`repro.serve.AsyncExplanationService` coalescing the whole
    trace into one flush) is asserted bit-identical in
    ``x_cf``/``predicted``/``valid`` to the synchronous
    :class:`repro.serve.ExplanationService` submit/flush path.  The
    4-replica sustained rate must hold the
    :data:`MIN_SERVE_SCALE_SPEEDUP` floor over 1 replica whenever both
    counts are measured.
    """
    import asyncio
    import tempfile

    from ..serve import (
        ArtifactStore,
        AsyncExplanationService,
        ExplanationService,
        WorkerPool,
        train_pipeline,
    )
    from .runconfig import ExperimentScale

    n_rows = spec["serve_scale_rows"]
    cache = spec["serve_scale_cache"]
    passes = spec["serve_scale_passes"]
    if replica_counts is None:
        replica_counts = spec["serve_scale_replicas"]
    replica_counts = sorted(int(count) for count in replica_counts)

    scale = ExperimentScale(
        "perfbench", spec["n_instances"], n_rows, spec["train_epochs"])
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        pipeline = train_pipeline(
            "adult", scale=scale, seed=seed,
            config=fast_config(epochs=spec["cf_epochs"]))
        store.save(pipeline, name="bench-scale")
        x_test, _ = pipeline.bundle.split("test")
        rows = np.ascontiguousarray(x_test[:n_rows])
        if len(rows) < n_rows:
            raise AssertionError(
                f"serve_scale workload needs {n_rows} test rows, "
                f"got {len(rows)}")
        # explicit targets keep the timed hot path free of per-request
        # black-box flips (one batched predict here instead)
        desired = 1 - pipeline.explainer.blackbox.predict(rows)

        # synchronous reference for the single-replica parity contract
        sync = ExplanationService.warm_start(store, "bench-scale",
                                             cache_size=cache)
        tickets = [sync.submit(row, int(target))
                   for row, target in zip(rows, desired)]
        sync.flush()
        reference = [ticket.result() for ticket in tickets]

        async def _async_trace(pool):
            front = AsyncExplanationService(
                pool, coalesce_window=0.05, max_batch=len(rows))
            results = await front.explain_many(rows, desired)
            await front.aclose()
            return results

        per_count = []
        for count in replica_counts:
            with WorkerPool(store, "bench-scale", n_replicas=count,
                            cache_size=cache) as pool:
                if count == 1:
                    async_results = asyncio.run(_async_trace(pool))
                    for got, want in zip(async_results, reference):
                        if (not np.array_equal(got["x_cf"], want["x_cf"])
                                or got["predicted"] != want["predicted"]
                                or got["valid"] != want["valid"]):
                            raise AssertionError(
                                "single-replica async serving diverges "
                                "from the synchronous service")

                latencies = []
                start = time.perf_counter()
                for _ in range(passes):
                    for i in range(n_rows):
                        request_start = time.perf_counter()
                        pool.explain_batch(rows[i:i + 1], desired[i:i + 1])
                        latencies.append(
                            time.perf_counter() - request_start)
                elapsed = max(time.perf_counter() - start, 1e-9)
                latencies_ms = np.asarray(latencies) * 1000.0
                aggregate = pool.stats()["aggregate"]
                per_count.append({
                    "replicas": count,
                    "rows_per_sec": round(len(latencies) / elapsed, 1),
                    "p50_ms": round(float(np.percentile(latencies_ms, 50)), 3),
                    "p99_ms": round(float(np.percentile(latencies_ms, 99)), 3),
                    "hit_rate": round(aggregate["hit_rate"], 4),
                    "shared_weight_bytes": aggregate["shared_weight_bytes"],
                })

    by_count = {entry["replicas"]: entry for entry in per_count}
    section = {
        "rows": n_rows,
        "requests": n_rows * passes,
        "cache_per_replica": cache,
        "backend": "thread",
        "rows_per_sec": per_count[-1]["rows_per_sec"],
        "replicas": per_count,
        "async_parity_single_replica": 1 in by_count,
    }
    if 1 in by_count and 4 in by_count:
        speedup = by_count[4]["rows_per_sec"] / by_count[1]["rows_per_sec"]
        if speedup < MIN_SERVE_SCALE_SPEEDUP:
            raise AssertionError(
                f"4-replica sustained rate is only {speedup:.2f}x the "
                f"single replica, below the {MIN_SERVE_SCALE_SPEEDUP}x "
                f"floor")
        section["speedup_4_replicas_vs_1"] = round(speedup, 2)
    return section


def run_perfbench(scale="smoke", seed=0):
    """Run every timed section and return a result dict."""
    if scale not in PERF_SCALES:
        raise KeyError(f"unknown scale {scale!r}; options: {sorted(PERF_SCALES)}")
    spec = PERF_SCALES[scale]
    min_seconds = spec["min_seconds"]

    bundle = load_dataset("adult", n_instances=spec["n_instances"], seed=seed)
    x_train, y_train = bundle.split("train")
    x_train = x_train[:spec["train_rows"]]
    y_train = y_train[:spec["train_rows"]]
    n_features = x_train.shape[1]

    # -- train throughput --------------------------------------------------
    def train_once():
        model = BlackBoxClassifier(n_features, np.random.default_rng(seed + 1))
        train_classifier(model, x_train, y_train,
                         epochs=spec["train_epochs"],
                         batch_size=spec["train_batch_size"],
                         rng=np.random.default_rng(seed + 2))

    train_rows = len(x_train) * spec["train_epochs"]
    train_rate, train_calls = _throughput(train_once, train_rows, min_seconds)

    # -- shared fitted pipeline (untimed setup) ----------------------------
    explainer = FeasibleCFExplainer(
        bundle.encoder, constraint_kind="unary",
        config=fast_config(epochs=spec["cf_epochs"]), seed=seed)
    explainer.fit(x_train, y_train, blackbox_epochs=spec["train_epochs"])

    # -- predict throughput ------------------------------------------------
    batch = np.ascontiguousarray(x_train[:spec["predict_batch"]])

    def predict_once():
        explainer.blackbox.predict(batch)

    predict_rate, predict_calls = _throughput(
        predict_once, len(batch), min_seconds)
    predict_rate_f32 = _float32_predict_rate(
        explainer.blackbox, batch, min_seconds, seed)

    # -- candidate-generation throughput -----------------------------------
    x_explain = x_train[:spec["candidate_rows"]]
    desired = 1 - explainer.blackbox.predict(x_explain)

    def candidates_once():
        generate_candidates(explainer, x_explain,
                            n_candidates=spec["n_candidates"],
                            desired=desired,
                            rng=np.random.default_rng(seed + 500))

    candidate_rate, candidate_calls = _throughput(
        candidates_once, len(x_explain), min_seconds)

    results = {
        "benchmark": "engine_fast_path",
        "scale": scale,
        "seed": seed,
        "workload": dict(spec),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "train": {
            "rows_per_sec": round(train_rate, 1),
            "calls": train_calls,
        },
        "predict": {
            "rows_per_sec": round(predict_rate, 1),
            "rows_per_sec_float32": (
                None if predict_rate_f32 is None else round(predict_rate_f32, 1)),
            "batch_size": spec["predict_batch"],
            "calls": predict_calls,
        },
        "candidates": {
            "rows_per_sec": round(candidate_rate, 1),
            "candidates_per_sec": round(candidate_rate * spec["n_candidates"], 1),
            "n_candidates": spec["n_candidates"],
            "calls": candidate_calls,
        },
        "constraint_eval": _constraint_eval_section(
            bundle, spec, min_seconds, seed),
        "density": _density_section(explainer, bundle, spec, min_seconds, seed),
        "causal": _causal_section(bundle, spec, min_seconds, seed),
        "robust": _robust_section(bundle, spec, min_seconds, seed),
        "plan": _plan_section(explainer, bundle, spec, min_seconds, seed),
        "inloss": _inloss_section(bundle, spec, seed),
        "serve": _serve_section(spec, seed),
        "serve_scale": _serve_scale_section(spec, seed),
    }
    if scale == PRE_PR_BASELINE["scale"]:
        results["pre_pr_baseline"] = dict(PRE_PR_BASELINE)
        results["speedup_vs_baseline"] = {
            "train": round(train_rate / PRE_PR_BASELINE["train_rows_per_sec"], 2),
            "predict": round(predict_rate / PRE_PR_BASELINE["predict_rows_per_sec"], 2),
            "candidates": round(candidate_rate / PRE_PR_BASELINE["candidate_rows_per_sec"], 2),
        }
    return results


def write_bench(results, path):
    """Write ``results`` as pretty JSON to ``path``; returns the path."""
    with open(path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path
