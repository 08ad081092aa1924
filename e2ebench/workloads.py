"""The three benchmark workloads: cold Table IV fit, single-row and async serving.

Every workload is generated here from the workload seed; the library
only receives the generated rows.  A workload runs *passes*: one pass is
a fixed amount of work (one cold fit of three scenarios, or one replay
of a fixed request trace against a cold result cache).  Pass ``i``
repeats pass ``i - cycle`` bit for bit; the run module times passes,
repeats them for the run's duration and compares them.

A workload's ``prepare()`` runs once, untimed; its ``setup()`` is the
set-up a user pays (importing the library for ``fit``, starting the
server from the store for the serving workloads) and the run module
repeats and times it between passes.

Workloads use only the public API of ``repro``.  Run as a script,
``python3 workloads.py build-store <dir>`` trains the served pipeline
into an ``ArtifactStore`` at ``<dir>``.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import importlib
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from hostspeed import HostClock

HERE = pathlib.Path(__file__).resolve().parent

#: Scenarios of the cold fit, in the order ``run_table4`` would run them.
FIT_SCENARIOS = ("adult/ours_unary", "adult/revise", "adult/ours_unary+inloss")
FIT_SCALE = "smoke"
#: Training seeds ``0 .. FIT_SEEDS - 1`` of the cold fits a run cycles
#: through; the workload seed picks where in the cycle a run starts.  At
#: smoke scale a Table IV row's feasibility moves by tens of points from
#: one training seed to the next, so quality is pooled over one whole,
#: fixed cycle and a quality change is the code's, not the seed's.
FIT_SEEDS = 4
#: Packages a cold fit imports; ``fit``'s set-up re-imports them.
LIBRARY_MODULES = ("repro.baselines", "repro.experiments", "repro.engine", "repro.serve")

#: Seed of the served model.  The served model is a fixed artifact; the
#: workload seed picks the traffic.
SERVE_MODEL_SEED = 0
SERVE_ARTIFACT = "adult-smoke"
#: Request rows are generated from ``REQUEST_SEED_OFFSET + seed`` so they
#: are fresh rows, never the served model's own training rows.
REQUEST_SEED_OFFSET = 10_000
#: Share of requests that repeat a row of the hot set, and its size.
HOT_SHARE = 0.2
HOT_ROWS = 32

STREAM_REQUESTS = 3000
ASYNC_CLIENTS = 32
ASYNC_REQUESTS = 32 * 160
#: Candidates the flush path proposes per row; passed to the pool.
FLUSH_CANDIDATES = 8


@dataclass
class PassResult:
    """What one pass did and produced.

    ``began`` and ``ended`` are ``perf_counter`` readings around the
    pass, ``starts[i]`` the reading when operation ``i`` (whose time is
    ``latencies[i]``) started; ``wall_s`` leaves out host-speed probes
    (``hostspeed.py``).  ``quality`` is ``(rows, valid, feasible,
    accepted)`` over the rows the quality figures count, when that is
    not every row.
    """

    wall_s: float
    began: float
    ended: float
    starts: list
    latencies: list
    rows: int
    valid: int
    feasible: int
    accepted: int
    failed_ops: set
    digest: str
    notes: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)
    quality: tuple = None


def _digest(*arrays):
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


def _row_checks(x, x_cf, desired, valid, feasible, immutable, blackbox, constraints):
    """Indices of rows whose output breaks the feasibility contract.

    * immutable columns of ``x_cf`` equal ``x``;
    * ``valid`` equals a fresh black-box recompute;
    * ``feasible`` equals a fresh constraint-set recompute.
    """
    bad = np.any(x_cf[:, immutable] != x[:, immutable], axis=1)
    bad |= (blackbox.predict(x_cf) == desired) != valid
    bad |= np.asarray(constraints.satisfied(x, x_cf), dtype=bool) != feasible
    return set(np.flatnonzero(bad).tolist())


class _Workload:
    """Lifecycle shared by the workloads: everything opened is closed on exit."""

    #: Distinct passes before the passes repeat.
    cycle = 1
    #: Timed set-ups before each round of passes.
    setups_per_round = 1

    def __init__(self, root, seed, work_dir):
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        self.clock = HostClock()
        self._exit = contextlib.ExitStack()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._exit.close()
        return False

    def unload(self):
        """Undo, untimed, what the next ``setup()`` must redo."""


# -- fit ---------------------------------------------------------------------
class FitWorkload(_Workload):
    """Cold "data -> black box -> CF-VAE -> Table IV row" for three scenarios.

    Pass ``i`` trains and explains with seed ``(seed + i) % FIT_SEEDS``.
    Set-up is importing the library: the only work a cold fit user pays
    before the fit itself starts.  numpy and scipy stay loaded, so a
    set-up measures the library's own modules.
    """

    name = "fit"
    cycle = FIT_SEEDS
    #: An import is short next to a fit pass; more samples steady its median.
    setups_per_round = 3

    def prepare(self):
        """Nothing to prepare: every pass is a cold fit."""

    def unload(self):
        for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
            del sys.modules[name]

    def setup(self):
        for name in LIBRARY_MODULES:
            importlib.import_module(name)

    def run_pass(self, index, tracer=None):
        from repro.engine import EngineRunner, get_scenario, run_scenario
        from repro.experiments import prepare_context

        seed = (self.seed + index) % FIT_SEEDS
        start = perf_counter()
        if tracer is not None:
            tracer.request_id = "prepare_context"
        context = prepare_context("adult", scale=FIT_SCALE, seed=seed)
        runner = EngineRunner(context.bundle.encoder, context.blackbox)
        runs = []
        run = runner.run

        def capture(*args, **kwargs):
            # output capture for the checks below; no timing
            out = run(*args, **kwargs)
            runs.append(out[0] if isinstance(out, tuple) else out)
            return out

        runner.run = capture
        results, starts, latencies = [], [], []
        for name in FIT_SCENARIOS:
            if tracer is not None:
                tracer.request_id = name
            began = perf_counter()
            results.append(run_scenario(get_scenario(name), context=context, runner=runner))
            starts.append(began)
            latencies.append(perf_counter() - began)
        end = perf_counter()
        return self._check(context, results, runs, (start, end, starts, latencies))

    def _check(self, context, results, runs, timing):
        """Check the Table IV rows against the engine runs they score.

        Feasibility is recomputed per row with the constraint kind the
        scenario trains against; its rate must equal the report's column.
        """
        from repro.constraints import build_constraints
        from repro.experiments import get_scale

        expected = get_scale(FIT_SCALE).n_explain
        encoder = context.bundle.encoder
        immutable = encoder.immutable_mask()
        notes, failed, digests = [], set(), []
        valid = feasible = accepted = rows = 0
        if len(runs) != len(results):
            notes.append(f"captured {len(runs)} engine runs for {len(results)} scenarios")
        for index, (result, run) in enumerate(zip(results, runs)):
            report, name = result.report, result.scenario.name
            reported = getattr(report, f"feasibility_{result.scenario.constraint_kind}")
            columns = [report.validity] + [
                v for v in (report.feasibility_unary, report.feasibility_binary)
                if v is not None]
            if reported is None or not all(
                    np.isfinite(v) and 0.0 <= v <= 100.0 for v in columns):
                notes.append(f"{name}: Table IV columns missing or outside 0-100: {columns}")
                continue
            if not (result.n_explained == report.n_instances == len(run.x_cf) == expected):
                notes.append(
                    f"{name}: explained {result.n_explained} rows "
                    f"(report {report.n_instances}, engine {len(run.x_cf)}), "
                    f"expected {expected}")
            constraints = build_constraints(encoder, result.scenario.constraint_kind)
            row_feasible = np.asarray(constraints.satisfied(run.x, run.x_cf), dtype=bool)
            if not np.isclose(report.validity, 100.0 * np.mean(run.valid)):
                notes.append(f"{name}: report validity differs from the engine run")
            if not np.isclose(reported, 100.0 * np.mean(row_feasible)):
                notes.append(f"{name}: report feasibility differs from a recompute")
            bad = _row_checks(run.x, run.x_cf, run.desired, run.valid, row_feasible,
                              immutable, context.blackbox, constraints)
            failed |= {(index, row) for row in bad}
            rows += len(run.x_cf)
            valid += int(np.sum(run.valid))
            feasible += int(np.sum(row_feasible))
            accepted += int(np.sum(run.valid & row_feasible))
            digests.append(_digest(run.x_cf, run.valid))
        start, end, starts, latencies = timing
        return PassResult(
            wall_s=self.clock.raw(start, end),
            began=start,
            ended=end,
            starts=starts,
            latencies=latencies,
            rows=rows,
            valid=valid,
            feasible=feasible,
            accepted=accepted,
            failed_ops=failed,
            digest=":".join(digests),
            notes=notes,
        )


# -- shared serving set-up -----------------------------------------------------
def build_store(root):
    """Train the served pipeline and persist it with knn + scm overlays."""
    from repro.causal import fit_causal
    from repro.density import fit_class_density
    from repro.serve import ArtifactStore, train_pipeline

    pipeline = train_pipeline("adult", scale=FIT_SCALE, seed=SERVE_MODEL_SEED)
    store = ArtifactStore(root)
    store.save(pipeline, SERVE_ARTIFACT)
    x_train, y_train = pipeline.bundle.split("train")
    desired_class = pipeline.encoder.schema.desired_class
    store.save_overlay(SERVE_ARTIFACT, "density",
                       fit_class_density("knn", x_train, y_train, desired_class))
    store.save_overlay(SERVE_ARTIFACT, "causal",
                       fit_causal("scm", pipeline.encoder, x_train, y_train))
    return store


def request_trace(pipeline, seed, n_requests):
    """Fixed request trace: fresh undesired-class rows plus a hot set.

    Rows come from the dataset generator under the workload seed and
    are encoded with the served encoder; only rows the served black box
    assigns to the undesired class are kept (the paper's recourse
    setting).  About ``HOT_SHARE`` of the requests repeat a row of a
    ``HOT_ROWS``-row hot set.  Returns ``(rows, hot_of)`` where
    ``hot_of[i]`` is the hot-set index request ``i`` repeats, or -1.
    """
    from repro.data import clean, generate_adult

    encoder, blackbox = pipeline.encoder, pipeline.blackbox
    undesired = encoder.schema.desired_class ^ 1
    wanted = n_requests + HOT_ROWS
    n_raw = 3 * wanted
    while True:
        frame, labels = generate_adult(n_instances=n_raw, seed=REQUEST_SEED_OFFSET + seed)
        frame, _ = clean(frame, labels)
        pool = encoder.transform(frame)
        pool = pool[blackbox.predict(pool) == undesired]
        if len(pool) >= wanted:
            break
        n_raw *= 2
    hot, fresh = pool[:HOT_ROWS], pool[HOT_ROWS:]
    rng = np.random.default_rng(seed)
    rows = np.empty((n_requests, encoder.n_encoded))
    hot_of = np.full(n_requests, -1)
    next_fresh = 0
    for i in range(n_requests):
        if rng.random() < HOT_SHARE:
            hot_of[i] = rng.integers(HOT_ROWS)
            rows[i] = hot[hot_of[i]]
        else:
            rows[i] = fresh[next_fresh]
            next_fresh += 1
    return rows, hot_of


class _ServeWorkload(_Workload):
    """Set-up shared by the serving workloads: a trained temp-dir store.

    ``prepare()`` trains the served pipeline into a temp-dir store in a
    child process, so training sets neither the serving process's peak
    memory nor its set-up time (``fit`` measures training), and derives
    the checker and the request trace.  ``setup()`` starts the server
    from the store: the first server serves, later ones are closed as
    soon as they are up.  The temp dir is removed on exit.
    """

    server = None

    def prepare(self):
        directory = tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work_dir)
        self._exit.callback(shutil.rmtree, directory, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        subprocess.run([sys.executable, str(HERE / "workloads.py"), "build-store", directory],
                       env=env, cwd=self.root, check=True, timeout=120)
        from repro.serve import ArtifactStore

        self.store = ArtifactStore(directory)
        checker = self.store.load(SERVE_ARTIFACT)
        self.desired_class = int(checker.encoder.schema.desired_class)
        self.blackbox = checker.blackbox
        self.constraints = checker.explainer.constraints
        self.immutable = checker.encoder.immutable_mask()
        self.rows, self.hot_of = request_trace(checker, self.seed, self.n_requests)
        # quality counts each distinct row once, as Table IV does: counting
        # repeats would weight the 32 hot rows by their 20% share of requests
        values, first = np.unique(self.hot_of, return_index=True)
        self.distinct = self.hot_of < 0
        self.distinct[first[values >= 0]] = True

    def setup(self):
        if self.server is None:
            self.server = self.start(self._exit)
        else:
            with contextlib.ExitStack() as spare:
                self.start(spare)

    def _result(self, timing, x_cf, valid, feasible, extra_notes=()):
        start, end, starts, latencies = timing
        rows = self.rows
        desired = np.full(len(rows), self.desired_class)
        failed = _row_checks(rows, x_cf, desired, valid, feasible, self.immutable,
                             self.blackbox, self.constraints)
        return PassResult(
            wall_s=self.clock.raw(start, end),
            began=start,
            ended=end,
            starts=starts,
            latencies=latencies,
            rows=len(rows),
            valid=int(valid.sum()),
            feasible=int(feasible.sum()),
            accepted=int((valid & feasible).sum()),
            failed_ops=failed,
            digest=_digest(x_cf, valid, feasible),
            notes=list(extra_notes),
            quality=(int(self.distinct.sum()), int(valid[self.distinct].sum()),
                     int(feasible[self.distinct].sum()),
                     int((valid & feasible)[self.distinct].sum())),
        )


# -- serve_stream --------------------------------------------------------------
class StreamWorkload(_ServeWorkload):
    """One closed-loop client, single-row ``explain_batch`` on a warm service."""

    name = "serve_stream"
    n_requests = STREAM_REQUESTS

    def start(self, exit_stack):
        from repro.serve import ExplanationService

        return ExplanationService.warm_start(
            self.store, SERVE_ARTIFACT, overlays={"density": "store", "causal": "store"})

    def run_pass(self, index, tracer=None):
        service, rows = self.server, self.rows
        n, width = rows.shape
        desired = np.array([self.desired_class])
        x_cf = np.empty((n, width))
        valid = np.empty(n, dtype=bool)
        feasible = np.empty(n, dtype=bool)
        starts = [0.0] * n
        latencies = [0.0] * n
        service.cache.clear()
        before = service.stats
        start = perf_counter()
        for i in range(n):
            if tracer is not None:
                tracer.request_id = i
            began = perf_counter()
            answer = service.explain_batch(rows[i:i + 1], desired)
            latencies[i] = perf_counter() - began
            starts[i] = began
            x_cf[i] = answer.x_cf[0]
            valid[i] = answer.valid[0]
            feasible[i] = answer.feasible[0]
        end = perf_counter()
        after = service.stats
        hits = after["cache_hits"] - before["cache_hits"]
        lookups = hits + after["cache_misses"] - before["cache_misses"]

        notes = []
        first = {}
        for i, hot in enumerate(self.hot_of):
            if hot < 0:
                continue
            if hot in first and not np.array_equal(x_cf[i], x_cf[first[hot]]):
                notes.append(f"request {i}: repeated row answered differently")
            first.setdefault(hot, i)
        expected_hits = int(np.sum(self.hot_of >= 0)) - len(first)
        if hits != expected_hits:
            notes.append(f"cache hits {hits}, expected {expected_hits} repeats")
        result = self._result((start, end, starts, latencies), x_cf, valid, feasible, notes)
        result.layer["cache_hit_pct"] = 100.0 * hits / max(lookups, 1)
        return result


# -- serve_async ---------------------------------------------------------------
class AsyncWorkload(_ServeWorkload):
    """32 closed-loop coroutine clients on ``AsyncExplanationService``.

    ``max_batch`` equals the client count, so a batch drains the moment
    every client has a request queued and each flush answers the same
    32 requests in the same order on every pass.  The flush path draws
    latent noise per batch position, so this is what makes the outputs
    (and the quality figures) repeat exactly for a seed.  The coalescing
    window is only a fallback and never expires in a healthy run.
    """

    name = "serve_async"
    n_requests = ASYNC_REQUESTS
    coalesce_window = 1.0

    def start(self, exit_stack):
        from repro.serve import WorkerPool

        # shared_weights=False: the thread backend shares one pipeline
        # anyway, and a shared-memory segment would live outside the
        # benchmark's directory
        pool = WorkerPool(self.store, SERVE_ARTIFACT, n_replicas=2, backend="thread",
                          shared_weights=False,
                          flush_kwargs={"n_candidates": FLUSH_CANDIDATES})
        # the pool is used as a with block that ends with ``exit_stack``
        return exit_stack.enter_context(pool)

    def run_pass(self, index, tracer=None):
        rows = self.rows
        n = len(rows)
        answers = [None] * n
        starts = [0.0] * n
        latencies = [0.0] * n
        pool_seconds = [0.0] * n
        before = self.server.stats()

        async def client(front, first):
            for i in range(first, n, ASYNC_CLIENTS):
                began = perf_counter()
                answer = await front.explain(rows[i], self.desired_class)
                latencies[i] = perf_counter() - began
                starts[i] = began
                answers[i] = answer
                if tracer is not None:
                    pool_seconds[i] = tracer.pool_flush_seconds(answer)

        async def main():
            from repro.serve import AsyncExplanationService

            front = AsyncExplanationService(
                self.server, coalesce_window=self.coalesce_window,
                max_batch=ASYNC_CLIENTS)
            try:
                await asyncio.gather(*(client(front, c) for c in range(ASYNC_CLIENTS)))
            finally:
                await front.aclose()
            return front.stats["front"]

        start = perf_counter()
        front_stats = asyncio.run(main())
        end = perf_counter()
        after = self.server.stats()

        x_cf = np.stack([a["x_cf"] for a in answers])
        valid = np.array([a["valid"] for a in answers])
        feasible = np.array([a["feasible"] for a in answers])
        usable = sum(a["n_usable"] for a in answers)
        notes = []
        expected_flushes = n // ASYNC_CLIENTS
        if front_stats["flushes"] != expected_flushes:
            notes.append(f"front flushed {front_stats['flushes']} batches, "
                         f"expected {expected_flushes}")
        result = self._result((start, end, starts, latencies), x_cf, valid, feasible, notes)
        replica_rows = [
            a["rows_coalesced"] - b["rows_coalesced"]
            for a, b in zip(after["per_replica"], before["per_replica"])]
        flushes = after["aggregate"]["flushes"] - before["aggregate"]["flushes"]
        result.layer.update({
            "usable_pct": 100.0 * usable / (n * FLUSH_CANDIDATES),
            "batch_rows": sum(replica_rows) / max(flushes, 1),
            "replica_max_share_pct": 100.0 * max(replica_rows) / max(sum(replica_rows), 1),
        })
        if tracer is not None:
            waits = sorted(lat - pool for lat, pool in zip(latencies, pool_seconds))
            result.layer["queue_wait_ms"] = 1000.0 * float(np.median(waits))
        return result


WORKLOADS = {w.name: w for w in (FitWorkload, StreamWorkload, AsyncWorkload)}


if __name__ == "__main__":
    if sys.argv[1:2] != ["build-store"] or len(sys.argv) != 3:
        sys.exit("usage: workloads.py build-store <dir>")
    build_store(sys.argv[2])
