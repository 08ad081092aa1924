"""Per-request call counts of a warm knn + scm service: overhead must not creep back.

A cache-miss ``explain_batch`` on a warm service used to walk the CF-VAE's
module tree twice (two ``eval()`` calls) and build a fresh
``default_rng(seed + 500)`` for the latent noise.  After the first
request neither may happen again.  Row checks stay at the public entries
a miss crosses (the service, ``EngineRunner.run`` and the strategy's
``propose``), and the black box runs once: the validity call.
"""

import sys

import numpy as np
import pytest

from repro.causal import fit_causal
from repro.density import fit_class_density
from repro.nn import Module
from repro.serve import ArtifactStore, ExplanationService
from repro.utils import validation


@pytest.fixture(scope="module")
def warm_service(tiny_pipeline, tmp_path_factory):
    store = ArtifactStore(tmp_path_factory.mktemp("call-counts"))
    store.save(tiny_pipeline, name="c")
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.encoder.schema.desired_class)
    store.save_overlay("c", "density",
                       fit_class_density("knn", x_train, y_train, desired_class))
    store.save_overlay("c", "causal",
                       fit_causal("scm", tiny_pipeline.encoder, x_train, y_train))
    return ExplanationService.warm_start(
        store, "c", overlays={"density": "store", "causal": "store"})


@pytest.fixture
def counts(monkeypatch, warm_service):
    """Counters patched onto every binding a served request can reach."""
    tally = {"walks": 0, "rngs": 0, "row_checks": 0, "predicts": 0}

    def counting(key, function):
        def wrapper(*args, **kwargs):
            tally[key] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Module, "modules", counting("walks", Module.modules))
    monkeypatch.setattr(np.random, "default_rng", counting("rngs", np.random.default_rng))
    check = validation.check_encoded_rows
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "repro" and getattr(module, "check_encoded_rows", None) is check:
            monkeypatch.setattr(module, "check_encoded_rows", counting("row_checks", check))
    blackbox = warm_service.explainer.blackbox
    monkeypatch.setattr(blackbox, "predict_logits",
                        counting("predicts", blackbox.predict_logits))
    return tally


def test_warm_miss_builds_and_walks_nothing(warm_service, tiny_pipeline, counts):
    x_test, _ = tiny_pipeline.bundle.split("test")
    desired = np.array([int(tiny_pipeline.encoder.schema.desired_class)])
    warm_service.cache.clear()
    warm_service.explain_batch(x_test[:1], desired)  # first request: warm-up
    for key in counts:
        counts[key] = 0
    misses = 6
    for i in range(1, 1 + misses):
        warm_service.explain_batch(x_test[i:i + 1], desired)
    assert warm_service.stats["cache_misses"] == 1 + misses
    assert counts["walks"] == 0
    assert counts["rngs"] == 0
    assert counts["row_checks"] == 3 * misses  # service, runner, strategy
    assert counts["predicts"] == misses  # the validity call only


def test_cache_hit_checks_its_rows_once(warm_service, tiny_pipeline, counts):
    x_test, _ = tiny_pipeline.bundle.split("test")
    desired = np.array([int(tiny_pipeline.encoder.schema.desired_class)])
    warm_service.explain_batch(x_test[:1], desired)
    for key in counts:
        counts[key] = 0
    warm_service.explain_batch(x_test[:1], desired)
    assert counts == {"walks": 0, "rngs": 0, "row_checks": 1, "predicts": 0}
