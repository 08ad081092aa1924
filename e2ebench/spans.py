"""Span tracing from outside the library: wrap public calls, keep spans in memory.

The benchmark never edits ``src/``.  A traced run replaces public
functions and methods of ``repro`` with timing wrappers, runs the
workload, and puts the originals back.  Two binding rules matter:

* a method is wrapped on the class that defines it (and on each
  subclass that overrides it), so every instance sees the wrapper;
* ``from x import f`` copies the binding into the importing module, so
  a function is replaced in *every* loaded ``repro`` module that holds
  it (``generate_candidates`` is then traced inside
  ``repro.serve.service`` as well as ``repro.core.selection``).

Targets that a later version of the library no longer has are skipped;
their layer then reports zero.

Spans nest through a thread-local parent stack.  A span that starts on
a thread with an empty stack while exactly one *carrier* span (a pool
call that fans work out to pool threads) is open elsewhere becomes that
carrier's child and shares its batch id, so replica work on pool
threads nests under the pool call that dispatched it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter

# (layer, module, class or None, attribute names, carrier)
#
# A class target also covers subclasses that override the attribute.
TARGETS = (
    ("data.load", "repro.serve.pipeline", None, ("load_bundle",), False),
    ("models.train_classifier", "repro.models", None, ("train_classifier",), False),
    ("core.warmstart", "repro.models", None, ("train_reconstruction_vae",), False),
    ("core.cfvae_fit", "repro.core", "CFVAEGenerator", ("fit",), False),
    ("core.loss", "repro.core", "FourPartLoss", ("__call__",), False),
    ("core.generate_candidates", "repro.core", None, ("generate_candidates",), False),
    ("nn.backward", "repro.nn", "Tensor", ("backward",), False),
    ("nn.optim_step", "repro.nn", "Optimizer", ("step",), False),
    ("baselines.fit", "repro.baselines", "BaseCFExplainer", ("fit",), False),
    ("engine.propose", "repro.engine", "CFStrategy", ("propose",), False),
    ("engine.run", "repro.engine", "EngineRunner", ("run",), False),
    ("engine.evaluate", "repro.engine", "EngineRunner", ("evaluate",), False),
    ("causal.repair", "repro.causal", "CausalModel", ("repair_batch",), False),
    ("density.score", "repro.density", "DensityModel", ("score", "score_tiled"), False),
    ("constraints.kernel", "repro.engine", "CompiledConstraintSet",
     ("satisfied", "evaluate"), False),
    ("models.predict", "repro.models", "BlackBoxClassifier", ("predict_logits",), False),
    ("serve.cache_get", "repro.serve", "LRUResultCache", ("get",), False),
    ("serve.explain_batch", "repro.serve", "ExplanationService", ("explain_batch",), False),
    ("serve.flush", "repro.serve", "ExplanationService", ("flush",), False),
    ("serve.pool_flush", "repro.serve", "WorkerPool", ("flush_rows",), True),
)


def _class_family(base):
    """``base`` and every loaded subclass of it, depth first."""
    seen, order, todo = set(), [], [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        order.append(cls)
        todo.extend(cls.__subclasses__())
    return order


class Tracer:
    """Patch the library, record spans, restore on exit (a context manager).

    ``spans`` holds ``(span_id, parent_id, layer, thread_id, start, end,
    batch_id)`` tuples; ``hits``/``lookups`` count result-cache gets.
    Set :attr:`request_id` before a top-level call on the workload's own
    thread so that call's spans carry it as their batch id.
    """

    def __init__(self):
        self.spans = []
        self.lookups = 0
        self.hits = 0
        self.request_id = None
        self.pool_flush_of = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._open_carriers = {}
        self._restore = []

    # -- patching ------------------------------------------------------------
    def __enter__(self):
        for layer, module_name, class_name, attrs, carrier in TARGETS:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    self._patch_function(module, attr, layer, carrier)
                continue
            base = getattr(module, class_name, None)
            if base is None:
                continue
            for cls in _class_family(base):
                for attr in attrs:
                    if attr in vars(cls):
                        original = vars(cls)[attr]
                        self._restore.append((cls, attr, original))
                        setattr(cls, attr, self._wrap(original, layer, carrier))
        return self

    def _patch_function(self, module, attr, layer, carrier):
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self._wrap(original, layer, carrier)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")) or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, wrapped)

    def __exit__(self, *exc_info):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    # -- spans ---------------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _root_parent(self):
        """Parent and batch id of a span opened on an empty stack."""
        with self._lock:
            if len(self._open_carriers) == 1:
                ((carrier, batch),) = self._open_carriers.items()
                return carrier, batch
        return None, self.request_id

    def _wrap(self, original, layer, carrier):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            if stack:
                parent, batch = stack[-1]
            else:
                parent, batch = tracer._root_parent()
            if carrier:
                batch = span_id
                with tracer._lock:
                    tracer._open_carriers[span_id] = batch
            stack.append((span_id, batch))
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if carrier:
                    with tracer._lock:
                        del tracer._open_carriers[span_id]
                tracer.spans.append(
                    (span_id, parent, layer, threading.get_ident(), start, end, batch))
            if layer == "serve.cache_get":
                with tracer._lock:
                    tracer.lookups += 1
                    tracer.hits += result is not None
            elif layer == "serve.pool_flush":
                # request -> the pool call that answered it, by result identity
                for answer in result:
                    tracer.pool_flush_of[id(answer)] = (answer, end - start)
            return result

        return traced

    def pool_flush_seconds(self, answer):
        """Duration of the pool flush that produced ``answer`` (pops it)."""
        return self.pool_flush_of.pop(id(answer))[1]

    def mark(self):
        """Position in :attr:`spans`; pass to :meth:`summarize` as ``since``."""
        return len(self.spans)

    def write(self, path):
        """Write every recorded span as one JSON line each."""
        fields = ("id", "parent", "layer", "thread", "start", "end", "batch")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span)), default=str) + "\n")

    def summarize(self, since=0):
        """Per-layer totals over the spans recorded after ``since``.

        Returns ``{layer: {"calls", "inclusive_s", "self_s"}}``.  A span
        nested inside a span of the same layer (a traced method calling
        another traced method of its layer) is not counted again.  Self
        time is a span's duration minus the part of it that its child
        spans cover.
        """
        spans = self.spans[since:]
        by_id = {span[0]: span for span in spans}
        children = {}
        for span in spans:
            children.setdefault(span[1], []).append(span)

        summary = {}
        for span in spans:
            span_id, parent, layer, _thread, start, end, _batch = span
            ancestor = by_id.get(parent)
            nested = False
            while ancestor is not None:
                if ancestor[2] == layer:
                    nested = True
                    break
                ancestor = by_id.get(ancestor[1])
            entry = summary.setdefault(
                layer, {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
            covered = _covered(start, end, children.get(span_id, ()))
            entry["self_s"] += (end - start) - covered
            if not nested:
                entry["calls"] += 1
                entry["inclusive_s"] += end - start
        return summary

    def outermost_seconds(self, layers, since=0):
        """Time covered by spans of ``layers`` not nested in one another."""
        spans = self.spans[since:]
        by_id = {span[0]: span for span in spans}
        total = 0.0
        for span in spans:
            if span[2] not in layers:
                continue
            ancestor = by_id.get(span[1])
            while ancestor is not None and ancestor[2] not in layers:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                total += span[5] - span[4]
        return total


def _covered(start, end, children):
    """Length of [start, end] covered by the union of child intervals."""
    intervals = sorted((max(start, c[4]), min(end, c[5])) for c in children)
    covered, cursor = 0.0, start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered
