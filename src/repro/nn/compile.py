"""Compiled training steps: trace a step per batch shape, replay it in place.

A training step rebuilds the same graph every batch: the same ops, on
arrays of the same shapes, in the same order.  :class:`CompiledStep`
runs the first two steps of each batch shape eagerly while a
:class:`StepTrace` records them (see the trace contract in
:mod:`repro.nn.tensor`).  A later batch of that shape is a *replay*: the
batch is written into the traced input buffers with ``np.take(...,
out=)``, every op's forward and every :func:`~repro.nn.tensor.host`
kernel re-runs into its existing arrays in the recorded order, and the
step returns the same output Tensors, now holding the new values.  The
caller then runs ``loss.backward()`` and its optimizer step as usual.
The backward is the one walking backward, recorded on its first call on
a traced root as a :class:`BackwardPlan`, whose later calls replay the
recorded kernels into persistent gradient buffers.  Same kernels, same
operands, same order, same RNG draws: a replayed fit is bit-identical to
an eager one.

Why two traces: an operand a step did not produce itself (not a bound
input, an op output or a ``host()`` result) is *external*.  A replay
reuses it, which is right for a parameter or a constant built before
the step, and wrong for an array the step computes afresh each time.
The two kinds look alike within one step; across two steps only the
first is the same object.  So the second trace must run the same
kernels and see the very same external operands as the first, or the
step is refused.  Python numbers (and slices) a step hands to an op, to
a Tensor it builds or to a ``host()`` kernel are replayed as traced
too, so the second trace must also see them equal: a number computed
from the batch (``1 / float(x.std())``) differs between two batches and
is refused the same way.  Both checks compare the first two batches of
a shape only; a value or a branch that first changes on a later batch
goes unnoticed.

The eager step is the trace step, and also the fallback.  A refused
step records why (with the call site) in :data:`REFUSALS` under the
loop's name, and that loop runs eager for the rest of its fit.  Likewise
the walking backward records the plan and is its fallback.
"""

from __future__ import annotations

import linecache
import os
import sys
import threading
from collections import Counter

import numpy as np

from . import tensor as _tensor
from .tensor import Tensor, _root

__all__ = ["CompiledStep", "StepTrace", "BackwardPlan", "REFUSALS"]

#: Loop name -> why its step was refused and runs eager (latest refusal).
REFUSALS = {}
#: Held while a step is traced: ops record into the one module-level
#: trace, so two threads must not trace at once.
_TRACING = threading.Lock()
#: Held while a backward is recorded, for the same reason.
_RECORDING = threading.Lock()

#: Frames inside these directories are skipped when naming a call site.
_INTERNAL_DIRS = (os.path.dirname(np.__file__), os.path.dirname(__file__))


def _call_site():
    """``(file, line, function)`` of the innermost caller outside
    :mod:`repro.nn` and numpy — where an operand entered the graph."""
    frame = sys._getframe(1)
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_INTERNAL_DIRS):
        frame = frame.f_back
    return frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name


def _render(site):
    filename, lineno, function = site
    code = linecache.getline(filename, lineno).strip()
    return f"{filename}:{lineno} in {function}: {code}"


def _same_number(first, second):
    """Whether two traced Python numbers (or slices) are the same value.

    ``repr`` tells ``-0.0`` from ``0.0`` and matches a NaN with itself.
    """
    return type(first) is type(second) and repr(first) == repr(second)


def _arrays(args):
    """Every ndarray among ``args``, looking into tuples and lists."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            yield arg
        elif isinstance(arg, (tuple, list)):
            yield from _arrays(arg)


def _refresh_host(fn, args, targets):
    """Re-run a recorded host kernel into its traced result arrays."""
    result = fn(*args)
    if not isinstance(result, tuple):
        result = (result,)
    for index, target in targets:
        np.copyto(target, result[index])


class StepTrace:
    """The kernels one traced step ran, and the operands it did not produce.

    ``known`` holds the arrays a replay refreshes (bound inputs, op
    outputs, host results), keyed by the id of the array owning their
    memory; ``kernels`` is the flat list of ``(fn, args)`` refreshes;
    ``external`` lists every other array operand (by owning array) with
    the call site where it entered, and ``numbers`` every Python number
    or slice operand and argument (by value) with its call site.
    ``constants`` holds the ids of the arrays of Tensors built from a
    Python number inside the step.  Only the thread that started the
    trace is recorded.
    """

    def __init__(self, inputs):
        self.thread = threading.get_ident()
        self.inputs = inputs
        self.kernels = []
        self.known = {}
        self.external = []
        self.numbers = []
        self.constants = set()
        self.refusal = None
        for array in inputs:
            if array is not None:
                self.own(array)

    def refuse(self, reason):
        """Mark the step as not replayable (the first reason wins)."""
        if self.refusal is None:
            self.refusal = reason

    def own(self, array):
        """Register ``array`` (and every view of it) as refreshed by the replay."""
        root = _root(array)
        self.known[id(root)] = root

    def check(self, value):
        """Record ``value`` (or the items of a tuple/list): an array if it
        is external, a Python number or slice always."""
        if isinstance(value, (tuple, list)):
            for item in value:
                self.check(item)
        elif isinstance(value, (np.ndarray, np.generic)):
            root = _root(value) if isinstance(value, np.ndarray) else value
            if id(root) not in self.known:
                self.external.append((root, _call_site()))
        elif isinstance(value, (int, float, complex, slice)):
            self.numbers.append((value, _call_site()))

    def kernel(self, out, fn, *args):
        """Record ``fn(*args)``, which refreshes ``out`` in place."""
        if threading.get_ident() != self.thread:
            return
        self.own(out)
        self.check(args)
        self.kernels.append((fn, args))

    def host(self, result, fn, args):
        """Record a :func:`~repro.nn.tensor.host` call and own its results."""
        if threading.get_ident() != self.thread:
            return
        self.check(args)
        parts = result if isinstance(result, tuple) else (result,)
        # a result aliasing a refreshed array follows it; any other is
        # re-computed and copied in
        targets = [(index, part) for index, part in enumerate(parts)
                   if id(_root(part)) not in self.known]
        for _, part in targets:
            self.own(part)
        if targets:
            self.kernels.append((_refresh_host, (fn, args, targets)))

    def constant(self, source, data):
        """Check a Tensor built from raw ``source`` (now ``data``) inside the step.

        Python numbers are compared with the second trace's; an ndarray
        is an operand like any other, and a dtype conversion of a
        refreshed array would go stale.
        """
        if threading.get_ident() != self.thread:
            return
        self.check(source)
        if (data is not source and isinstance(source, np.ndarray)
                and id(_root(source)) in self.known):
            self.refuse("a dtype conversion of a refreshed array inside the "
                        "step would not be refreshed; convert it in host()")
        if isinstance(source, (int, float)):
            self.constants.add(id(data))
        self.own(data)

    def signature(self):
        """What a second trace of the step must repeat: kernels, externals
        and numbers."""
        return [fn for fn, _ in self.kernels], self.external, self.numbers

    def mismatch(self, signature):
        """Why this trace does not repeat an earlier one's ``signature``, or None."""
        kernels, external, numbers = signature
        if ([fn for fn, _ in self.kernels] != kernels or len(self.external) != len(external)
                or len(self.numbers) != len(numbers)):
            return ("two batches of one shape ran different ops (control flow "
                    "that depends on the data)")
        for (first, _), (second, site) in zip(external, self.external):
            if first is not second:
                return (f"an array created inside the step enters the graph at "
                        f"{_render(site)}; it is not a bound input, an op output "
                        f"or a host() result, so a replay would leave it stale")
        for (first, _), (second, site) in zip(numbers, self.numbers):
            if not _same_number(first, second):
                return (f"a Python number that changes between batches ({first!r}, "
                        f"then {second!r}) enters the step at {_render(site)}; a "
                        f"replay would keep the traced value, so compute it in host()")
        return None

    def replay(self):
        """Re-run every recorded kernel in order."""
        for fn, args in self.kernels:
            fn(*args)


class BackwardPlan:
    """A traced root's backward, recorded once and replayed as flat kernels.

    The root's first ``backward()`` walks the graph while every kernel
    (``repro.nn.tensor._k``) records ``(fn, args, out)`` and every leaf
    its gradient.  The record then folds kernels that read only constants
    (the root's ones, Tensors built from Python numbers in the step,
    folded outputs) into their kept values, and lets a leaf bind a kernel
    output no other kernel reads instead of a copy of it; a leaf never
    binds a folded or shared buffer, so ``p.grad`` may be edited in
    place.  A record that reads an array the trace does not know is
    dropped, and the root walks from then on.  ``docs/performance.md``
    ("Compiled backward") has the rules and the fallbacks.
    """

    def __init__(self, trace):
        self.trace = trace  # None once recorded, or dropped
        self.kernels = None
        self.binds = ()
        self._thread = None

    def replay(self):
        """Run the plan; False, with nothing done, when it does not apply."""
        if self.kernels is None:
            return False
        for leaf, _ in self.binds:
            if leaf.grad is not None:
                return False
        for fn, args in self.kernels:
            fn(*args)
        for leaf, buffer in self.binds:
            leaf.grad = buffer
        return True

    def begin(self, ones):
        """Record the walk about to run from ``ones``; False when recorded
        or dropped already, or another thread is recording."""
        if self.trace is None or not _RECORDING.acquire(blocking=False):
            return False
        self._thread = threading.get_ident()
        self._ones, self._recorded, self._bound = ones, [], []
        _tensor._RECORD = self
        return True

    def kernel(self, fn, args, out):
        """Record ``fn(*args, out)`` (from the recording thread only)."""
        if threading.get_ident() == self._thread:
            self._recorded.append((fn, args, out))

    def bind(self, leaf, grad):
        """Record that the walk gave ``leaf`` the gradient ``grad``."""
        self._bound.append((leaf, grad))

    def end(self, completed):
        """Stop recording; a completed record becomes the plan."""
        _tensor._RECORD = None
        self._thread = None
        plan = self._compile() if completed else None
        self._ones = self._recorded = self._bound = self.trace = None
        _RECORDING.release()
        if plan is not None:
            self.kernels, self.binds = plan

    def _compile(self):
        """``(kernels, binds)`` from the record, or None if it cannot replay."""
        recorded, binds = self._recorded, list(self._bound)
        bound = {id(grad) for _, grad in binds}
        writes = Counter(id(out) for _, _, out in recorded)
        if not bound <= writes.keys():
            return None  # a leaf accumulated into a gradient it already held
        constant = {id(self._ones)} | self.trace.constants
        live = []
        for kernel in recorded:
            out = kernel[2]
            if (writes[id(out)] == 1 and id(out) not in bound
                    and all(id(_root(a)) in constant for a in _arrays(kernel[1]))):
                constant.add(id(out))
            else:
                live.append(kernel)
        producer = {id(out): (fn, args) for fn, args, out in live}
        reads = Counter(id(_root(a)) for _, args, _ in live for a in _arrays(args))
        dropped = set()
        for index, (leaf, grad) in enumerate(binds):
            fn, (source, *_) = producer[id(grad)]
            if (fn is np.positive and id(source) in producer and id(source) not in bound
                    and reads[id(source)] == 1):
                dropped.add(id(grad))
                binds[index] = (leaf, source)
        live = [kernel for kernel in live if id(kernel[2]) not in dropped]
        known = (producer.keys() | constant | self.trace.known.keys()
                 | {id(root) for root, _ in self.trace.external})
        for _, args, _ in live:
            if any(id(_root(a)) not in known for a in _arrays(args)):
                return None
        return [(fn, args + (out,)) for fn, args, out in live], binds


def _tensors(outputs):
    """Every Tensor in a (nested) tuple/list/dict of step outputs."""
    if isinstance(outputs, Tensor):
        yield outputs
    elif isinstance(outputs, dict):
        for value in outputs.values():
            yield from _tensors(value)
    elif isinstance(outputs, (tuple, list)):
        for value in outputs:
            yield from _tensors(value)


class CompiledStep:
    """A training step traced per batch shape and replayed in place.

    Parameters
    ----------
    fn:
        The step: ``fn(*batch_inputs)`` builds the forward graph and
        returns a Tensor, or a tuple/dict of Tensors (the loss and
        anything the loop reads, e.g. loss parts).  It must follow the
        trace contract of :mod:`repro.nn.tensor`.
    inputs:
        Full arrays (or None) the loop batches by rows; ``fn`` receives
        ``inputs[i][rows]`` for each.
    name:
        The loop's name, the key of a refusal in :data:`REFUSALS`.

    Calling ``step(rows)`` (integer row indices, or nothing when there
    are no batch inputs) returns ``fn``'s outputs for that batch.  The
    first two calls of a batch shape run eagerly and are traced; later
    ones replay and return the *same* Tensor objects refreshed, so
    values read from an earlier step's outputs must be copied out before
    the next call.  Use it as a context manager: leaving the block drops
    the traces (at the end of a fit).
    """

    def __init__(self, fn, inputs=(), name="step"):
        self.fn = fn
        self.inputs = tuple(inputs)
        self.name = name
        self.refused = None
        self._signatures = {}
        self._traces = {}
        self._first_outputs = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    def close(self):
        """Drop every trace, and the backward plans of its outputs."""
        for _, outputs in self._traces.values():
            for node in _tensors(outputs):
                node._plan = None
        self._traces.clear()
        self._signatures.clear()
        self._first_outputs = None

    def _bind(self, rows):
        if rows is None:
            return list(self.inputs)
        return [None if array is None else np.take(array, rows, axis=0)
                for array in self.inputs]

    def __call__(self, rows=None):
        if self._first_outputs is not None:
            # the caller is done with the last first-trace step's outputs
            # (see above): cut them from their graph, so it is freed now
            # instead of held next to the one this call builds
            for node in _tensors(self._first_outputs):
                node._parents, node._backward = (), None
            self._first_outputs = None
        if self.refused is not None or _tensor._TRACE is not None:
            # refused, or nested inside another trace (which records it)
            return self.fn(*self._bind(rows))
        key = None if rows is None else len(rows)
        traced = self._traces.get(key)
        if traced is None:
            if not _TRACING.acquire(blocking=False):
                # another thread is tracing: run this step eager, trace later
                return self.fn(*self._bind(rows))
            try:
                return self._trace(key, rows)
            finally:
                _TRACING.release()
        trace, outputs = traced
        if rows is not None:
            for array, buffer in zip(self.inputs, trace.inputs):
                if array is not None:
                    np.take(array, rows, axis=0, out=buffer)
        trace.replay()
        return outputs

    def _trace(self, key, rows):
        bound = self._bind(rows)
        trace = StepTrace(bound)
        _tensor._TRACE = trace
        try:
            outputs = self.fn(*bound)
        finally:
            _tensor._TRACE = None
        if next(_tensors(outputs), None) is None:
            trace.refuse("the step returned no Tensor")
        first = self._signatures.pop(key, None)
        reason = None if first is None else trace.mismatch(first)
        if reason is not None:
            trace.refuse(reason)
        if trace.refusal is not None:
            self.refused = f"{self.name}: {trace.refusal}"
            REFUSALS[self.name] = self.refused
            self.close()
        elif first is None:
            # the first trace of this shape: the second must repeat it
            self._signatures[key] = trace.signature()
            self._first_outputs = outputs
        else:
            for node in _tensors(outputs):
                if node.requires_grad:
                    node._plan = BackwardPlan(trace)
            self._traces[key] = (trace, outputs)
        return outputs
