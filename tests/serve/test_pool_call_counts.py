"""Call counts of one ``WorkerPool.flush_rows``: the drain path stays one pass per shard.

The pool checks the coalesced rows and resolves their desired classes
once for the whole batch, then answers each routed shard with ONE
``EngineRunner.run`` through the pool's shared strategy, and the
asyncio front hands each request the very dict ``flush_rows`` built (a
copy would break callers that match answers by identity).
"""

import asyncio
import sys
import threading

import pytest

from repro.engine import EngineRunner
from repro.serve import ArtifactStore, AsyncExplanationService, WorkerPool
from repro.utils import validation


@pytest.fixture(scope="module")
def pool(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("pool-counts"))
    store.save(tiny_pipeline, name="c")
    with WorkerPool(store, "c", n_replicas=2, flush_kwargs={"n_candidates": 4}) as pool:
        yield pool


@pytest.fixture
def counts(monkeypatch):
    """Counters on every binding the drain path could reach.

    Row checks and desired resolutions are only counted outside
    ``EngineRunner.run`` (the runner and its strategy check their own
    inputs).
    """
    tally = dict.fromkeys(("runs", "row_checks", "resolves"), 0)
    lock = threading.Lock()
    inside_run = threading.local()

    def bump(key):
        with lock:
            tally[key] += 1

    def counting(key, function, outside_run_only=False):
        def wrapper(*args, **kwargs):
            if not (outside_run_only and getattr(inside_run, "active", False)):
                bump(key)
            return function(*args, **kwargs)
        return wrapper

    run = EngineRunner.run

    def counting_run(self, *args, **kwargs):
        bump("runs")
        inside_run.active = True
        try:
            return run(self, *args, **kwargs)
        finally:
            inside_run.active = False

    monkeypatch.setattr(EngineRunner, "run", counting_run)
    for name, original in (("check_encoded_rows", validation.check_encoded_rows),
                           ("resolve_desired", validation.resolve_desired)):
        key = "row_checks" if name == "check_encoded_rows" else "resolves"
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "repro" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting(key, original, outside_run_only=True))
    return tally


def test_flush_rows_makes_one_runner_pass_per_shard(pool, explain_rows, counts):
    rows = explain_rows[:16]
    shards = {pool.route(row, 1) for row in rows}
    before = pool.stats()["aggregate"]
    answers = pool.flush_rows(rows, 1)
    after = pool.stats()["aggregate"]
    assert len(answers) == len(rows)
    assert counts == {"runs": len(shards), "row_checks": 1, "resolves": 1}
    # the replicas still count each shard as one flush of its rows
    assert after["flushes"] - before["flushes"] == len(shards)
    assert after["rows_coalesced"] - before["rows_coalesced"] == len(rows)


def test_async_front_returns_the_dicts_flush_rows_built(pool, explain_rows, monkeypatch):
    built = []
    flush_rows = pool.flush_rows

    def recording(*args, **kwargs):
        answers = flush_rows(*args, **kwargs)
        built.append(answers)
        return answers

    monkeypatch.setattr(pool, "flush_rows", recording)

    async def scenario():
        front = AsyncExplanationService(pool, coalesce_window=0.001)
        answer = await front.explain(explain_rows[0])
        await front.aclose()
        return answer

    answer = asyncio.run(scenario())
    assert len(built) == 1
    assert answer is built[0][0]
    assert answer["x_cf"].shape == explain_rows[0].shape
