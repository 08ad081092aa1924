"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the computational substrate for every model in the
reproduction (the black-box classifier, the VAE and the gradient-based
baselines).  It implements a small but complete autograd engine:

* :class:`Tensor` wraps a ``numpy.ndarray`` and records the operations
  applied to it in a DAG.
* :meth:`Tensor.backward` walks the DAG in reverse topological order and
  accumulates gradients, with full support for numpy broadcasting.

The design mirrors the micro-autograd style popularised by PyTorch: each
primitive op stores a closure that knows how to push the output gradient
back to its parents.  All gradients are verified against central finite
differences in ``tests/nn/test_gradcheck.py``.

Gradient contract (PyTorch's default):

* only *leaves* — tensors created with ``requires_grad=True`` rather than
  produced by an op — receive :attr:`Tensor.grad`; interior nodes keep
  ``grad is None`` after :meth:`Tensor.backward`;
* an operand whose ``requires_grad`` is False when ``backward()`` runs
  gets no gradient computed at all, so a frozen weight (or a constant
  such as a dropout mask) costs no ``x.T @ g`` or reduction.  The flag
  is read at backward time, so freezing a weight between the forward
  and the backward pass is honoured.

Compiled steps (:mod:`repro.nn.compile`): a training loop traces its
step per batch shape and then *replays* it.  While a step is traced
every op records its forward formula with ``out=`` the node's array
(and the masks its backward captured); a replay re-runs those kernels in
order.  The backward is compiled the same way: every closure computes
each array through :func:`_k` (``fn`` taking ``out`` last), so the
traced root's first :meth:`Tensor.backward` records the walk as a flat
kernel plan, which later calls replay into persistent gradient buffers
(:class:`repro.nn.compile.BackwardPlan`).  A leaf's ``.grad`` after a
replay is such a buffer, overwritten by the next step's replay: copy it
to keep it (editing it in place is safe).  The trace contract — inside a
traced step an operand or argument may be:

* a parameter, or a Tensor/ndarray that existed before the trace;
* a Python scalar that does not depend on the batch;
* a view of a bound batch input or of an op's output;
* the output of :func:`host`: a recorded RNG draw, or a host-side numpy
  kernel computing a constant from batch data.

An ndarray created inside the step that is none of these would be stale
on a replay; the tracer refuses such a step (naming where the array
entered the graph) and the loop runs eager.  A Python number derived
from batch data would be stale too and must go through :func:`host`:
the tracer refuses a number that differs between the first two batches
of a shape, but a number or a branch that first changes on a later
batch is not detected.
Parameters must be updated in place (every optimizer here does), and
``requires_grad`` flags must not change while a compiled loop runs.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import functional

__all__ = [
    "Tensor", "as_tensor", "linear", "host", "no_grad", "is_grad_enabled",
    "get_default_dtype", "set_default_dtype", "dtype_scope",
]

_GRAD_ENABLED = True
#: The :class:`repro.nn.compile.StepTrace` recording the current step, if any.
_TRACE = None
#: The :class:`repro.nn.compile.BackwardPlan` recording a backward, if any.
_RECORD = None
_DEFAULT_DTYPE = np.float64
_FLOAT_TYPES = (np.float32, np.float64)


def set_default_dtype(dtype):
    """Set the dtype new tensors are created with; returns the previous one.

    ``float64`` (the default) is the gradcheck-grade mode every parity
    test runs in; ``float32`` is the fast mode — half the memory traffic
    through the matmul-bound hot paths at the cost of ~1e-7 relative
    precision.  Accepts ``"float32"``/``"float64"`` or the numpy types.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype).type
    if resolved not in (np.float32, np.float64):
        raise ValueError(f"default dtype must be float32 or float64, got {dtype!r}")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


def get_default_dtype():
    """Return the dtype new tensors are created with."""
    return _DEFAULT_DTYPE


class dtype_scope:
    """Context manager pinning the default tensor dtype inside a block.

    >>> with dtype_scope("float32"):
    ...     model = BlackBoxClassifier(n, rng)   # float32 parameters
    """

    def __init__(self, dtype):
        self._dtype = dtype
        self._previous = None

    def __enter__(self):
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        set_default_dtype(self._previous)
        return False


class no_grad:
    """Context manager that disables graph construction.

    Inside a ``with no_grad():`` block every operation produces detached
    tensors.  Used by evaluation loops and by the data pipelines, where
    gradient tracking would only waste memory.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def is_grad_enabled():
    """Return whether operations currently record the autograd graph."""
    return _GRAD_ENABLED


def _k(fn, *args, out=None):
    """A backward kernel: ``fn(*args)``, or ``fn(*args, out)`` written into ``out``.

    Every array a backward closure computes goes through here (views
    need not).  A numpy scalar result (a full reduction, 0-d operands)
    comes back as a 0-d array, so a fan-in can accumulate into it in
    place and a replay can write it.  While a traced root's backward is
    recorded, the call is recorded with its output array.
    """
    if out is None:
        out = fn(*args)
        if out.__class__ is not np.ndarray:
            out = np.asarray(out)
    else:
        fn(*args, out)
    record = _RECORD  # read once: another thread may end its recording
    if record is not None:
        record.kernel(fn, args, out)
    return out


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions.

    Numpy broadcasting can expand an operand along leading axes or along
    axes of size one; the gradient of a broadcast is the sum over the
    expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = _k(_sum_into, grad, 0, False)
    # Sum axes that were expanded from size one.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = _k(_sum_into, grad, axis, True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad=False):
    """Coerce ``value`` (Tensor, ndarray or scalar) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def host(fn, *args):
    """Run a host-side kernel ``fn(*args)`` whose result a step treats as constant.

    Use it for every ndarray a step computes outside the ops: RNG draws
    (dropout masks, reparameterisation noise) and constants derived from
    batch data (hinge signs, a max-shift, masks read off ``.data``).
    Results come back as ndarrays (a tuple of them when ``fn`` returns a
    tuple).  Inside a traced step the call is recorded, so a replay
    re-runs ``fn`` — drawing from the same Generator in the same order —
    and writes the result into the same arrays.
    """
    result = fn(*args)
    if isinstance(result, tuple):
        result = tuple(np.asarray(part) for part in result)
    else:
        result = np.asarray(result)
    if _TRACE is not None:
        _TRACE.host(result, fn, args)
    return result


def _where_into(cond, a, b, out):
    """``np.where(cond, a, b)`` written into ``out`` (a pure selection)."""
    np.copyto(out, b)
    np.copyto(out, a, where=cond)


def _maximum_into(a, b, out):
    """``np.maximum(a, b)`` written into ``out``."""
    np.maximum(a, b, out=out)


def _sum_into(a, axis, keepdims, out=None):
    """``a.sum(axis, keepdims=keepdims)`` (written into ``out`` if given)."""
    return np.add.reduce(a, axis, None, out, keepdims)


def _broadcast_into(a, shape, out=None):
    """``np.broadcast_to(a, shape)`` as a contiguous array."""
    if out is None:
        out = np.empty(shape, a.dtype)
    np.copyto(out, a)
    return out


def _scatter_into(g, index, shape, dtype, out=None):
    """The gradient of ``a[index]``: zeros of ``shape`` with ``g`` added at ``index``."""
    if out is None:
        out = np.zeros(shape, dtype)
    else:
        out.fill(0)
    np.add.at(out, index, g)
    return out


def _copy_into(fn, a, arg, out):
    """``fn(a, arg)`` — an indexing or reshape that copied — written into ``out``."""
    np.copyto(out, fn(a, arg))


def _power(a, exponent, out=None):
    """``a ** exponent`` (numpy's own fast path squares for exponent 2)."""
    if exponent == 2:
        return np.square(a, out)
    if out is None:
        return a ** exponent
    np.copyto(out, a ** exponent)
    return out


def _root(array):
    """The array owning ``array``'s memory (itself unless it is a view)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


class Tensor:
    """A numpy array with reverse-mode autograd.

    Parameters
    ----------
    data:
        Anything convertible to a float64 ``numpy.ndarray``.
    requires_grad:
        When True the tensor accumulates gradients in :attr:`grad`
        during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_plan")
    __array_priority__ = 100  # make numpy defer to our __r*__ operators

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        # float32/float64 data keeps its dtype (so float32 models stay
        # float32 through graph ops even outside a dtype_scope);
        # everything else coerces to the configured default.
        source = data
        data = np.asarray(data)
        if data.dtype.type not in _FLOAT_TYPES:
            data = data.astype(_DEFAULT_DTYPE)
        self.data = data
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad = None
        self._parents = _parents if self.requires_grad or _parents else ()
        self._backward = _backward
        self._plan = None
        if _TRACE is not None:
            _TRACE.constant(source, data)

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self):
        """Shape of the wrapped array."""
        return self.data.shape

    @property
    def ndim(self):
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self):
        """Total number of elements."""
        return self.data.size

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{flag})"

    def numpy(self):
        """Return the underlying ndarray (no copy)."""
        return self.data

    def item(self):
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data)

    def detach(self):
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data, parents, backward, kernel=None, args=()):
        """The node an op returns: ``data`` with its parents and backward.

        ``kernel(*args, out)`` is the op's forward written into ``out``;
        while a step is traced it is recorded with ``out`` the node's
        array, so a replay refreshes the node in place.
        """
        requires = False
        if _GRAD_ENABLED:
            for parent in parents:
                if parent.requires_grad:
                    requires = True
                    break
        if not requires:
            parents, backward = (), None
        if data.__class__ is not np.ndarray or data.dtype.type not in _FLOAT_TYPES:
            # numpy scalars (full reductions) become 0-d arrays, so a
            # replay can refresh them in place; non-float results coerce
            data = np.asarray(data)
            if data.dtype.type not in _FLOAT_TYPES:
                data = data.astype(_DEFAULT_DTYPE)
        out = Tensor.__new__(Tensor)
        out.data = data
        out.requires_grad = requires
        out.grad = None
        out._parents = parents
        out._backward = backward
        out._plan = None
        if _TRACE is not None and kernel is not None:
            _TRACE.kernel(data, kernel, *args, data)
        return out

    def _topological_order(self):
        """Post-order of the nodes reachable through ``requires_grad`` parents.

        The visit order fixes the floating-point order in which three or
        more contributions to one node are summed, so it must not change.
        """
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and parent not in visited:
                    stack.append((parent, False))
        return order

    def backward(self, grad=None):
        """Backpropagate from this tensor through the recorded graph.

        Gradients accumulate into :attr:`grad` of the leaves only (see the
        module docstring); interior nodes are never written.  On a traced
        root (a compiled step's output) the first ``backward()`` also
        records the pass as a flat kernel plan, and later calls replay it
        when they can (see :class:`repro.nn.compile.BackwardPlan`).

        Parameters
        ----------
        grad:
            Gradient of some scalar objective w.r.t. this tensor.  Defaults
            to ones, which is only meaningful for scalar outputs.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        plan = self._plan
        record = False
        if grad is None:
            if plan is not None and plan.replay():
                return
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
            record = plan is not None and plan.begin(grad)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        order = self._topological_order()

        # ``grads`` maps node (hashed by identity) -> pending gradient.
        # Entries in ``owned`` are buffers allocated by this pass, so
        # further fan-in contributions accumulate into them in place (and
        # a leaf may keep one as its ``.grad`` without a copy); entries
        # not in ``owned`` may alias an upstream array (many backwards
        # return the output gradient itself) and are only combined out of
        # place.
        grads = {self: grad}
        owned = set()
        completed = False
        try:
            for node in reversed(order):
                node_grad = grads.pop(node, None)
                if node_grad is None:
                    continue
                backward = node._backward
                if backward is None:
                    # a leaf: the only kind of node that keeps a gradient
                    if node.grad is not None:
                        np.add(node.grad, node_grad, out=node.grad)
                    elif node in owned:
                        node.grad = node_grad
                    else:
                        node.grad = _k(np.positive, node_grad)  # a bit-exact copy
                    if record:
                        plan.bind(node, node.grad)
                    continue
                for parent, parent_grad in backward(node_grad):
                    if not parent.requires_grad:
                        continue
                    if parent not in grads:
                        grads[parent] = parent_grad
                    elif parent in owned:
                        _k(np.add, grads[parent], parent_grad, out=grads[parent])
                    else:
                        grads[parent] = _k(np.add, grads[parent], parent_grad)
                        owned.add(parent)
            completed = True
        finally:
            if record:
                plan.end(completed)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    # Each op computes its forward through one numpy expression and hands
    # ``_make`` that expression's ``out=`` form, which a traced step
    # records (see ``_make``); masks a backward closure captured are
    # recorded the same way (``_TRACE.kernel(out, fn, *args)`` records
    # ``fn(*args)``, which writes ``out``).  Views (basic indexing,
    # reshape, transpose) need no refresh.
    def __add__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(g):
            grads = []
            if self.requires_grad:
                grads.append((self, _unbroadcast(g, self.shape)))
            if other.requires_grad:
                grads.append((other, _unbroadcast(g, other.shape)))
            return grads

        return Tensor._make(np.add(a, b), (self, other), backward, np.add, (a, b))

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            return ((self, _k(np.negative, g)),)

        return self._unary(np.negative, backward)

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(g):
            grads = []
            if self.requires_grad:
                grads.append((self, _unbroadcast(_k(np.multiply, g, b), self.shape)))
            if other.requires_grad:
                grads.append((other, _unbroadcast(_k(np.multiply, g, a), other.shape)))
            return grads

        return Tensor._make(np.multiply(a, b), (self, other), backward, np.multiply, (a, b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(g):
            grads = []
            if self.requires_grad:
                grads.append((self, _unbroadcast(_k(np.true_divide, g, b), self.shape)))
            if other.requires_grad:
                grad_other = _k(np.true_divide, _k(np.multiply, _k(np.negative, g), a),
                                _k(np.square, b))
                grads.append((other, _unbroadcast(grad_other, other.shape)))
            return grads

        return Tensor._make(np.true_divide(a, b), (self, other), backward, np.true_divide, (a, b))

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        a = self.data

        def backward(g):
            return ((self, _k(np.multiply, _k(np.multiply, g, exponent),
                              _k(_power, a, exponent - 1))),)

        return Tensor._make(_power(a, exponent), (self,), backward, _power, (a, exponent))

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self.data, other.data

        def backward(g):
            grads = []
            if self.requires_grad:
                grad_self = _k(np.matmul, g, b.T) if b.ndim > 1 else _k(np.outer, g, b)
                grads.append((self, grad_self.reshape(self.shape)))
            if other.requires_grad:
                grad_other = _k(np.matmul, a.T, g) if a.ndim > 1 else _k(np.outer, a, g)
                grads.append((other, grad_other.reshape(other.shape)))
            return grads

        return Tensor._make(np.matmul(a, b), (self, other), backward, np.matmul, (a, b))

    # ------------------------------------------------------------------
    # elementwise non-linearities
    # ------------------------------------------------------------------
    def _unary(self, kernel, backward):
        """Node ``kernel(self.data)`` (a one-input ``out=``-capable kernel).

        A backward reading the output must capture ``out.data``, not the
        node: a closure holding its own node is a reference cycle, and
        the graph would outlive the step until the cyclic GC runs.
        """
        return Tensor._make(kernel(self.data), (self,), backward, kernel, (self.data,))

    def exp(self):
        """Elementwise exponential."""
        def backward(g):
            return ((self, _k(np.multiply, g, out_data)),)

        out = self._unary(np.exp, backward)
        out_data = out.data
        return out

    def log(self):
        """Elementwise natural logarithm."""
        def backward(g):
            return ((self, _k(np.true_divide, g, self.data)),)

        return self._unary(np.log, backward)

    def sqrt(self):
        """Elementwise square root."""
        def backward(g):
            return ((self, _k(np.true_divide, _k(np.multiply, g, 0.5), out_data)),)

        out = self._unary(np.sqrt, backward)
        out_data = out.data
        return out

    def relu(self):
        """Rectified linear unit, ``max(x, 0)``.

        The backward recomputes the pass-through mask from the forward
        *output* (``out > 0``), so no separate mask array is stored.
        """
        def backward(g):
            return ((self, _k(np.multiply, g, _k(np.greater, out_data, 0))),)

        out = self._unary(functional.relu_forward, backward)
        out_data = out.data
        return out

    def sigmoid(self):
        """Numerically stable logistic sigmoid.

        The backward reuses the forward output: ``g * out * (1 - out)``.
        """
        def backward(g):
            return ((self, _k(np.multiply, _k(np.multiply, g, out_data),
                              _k(np.subtract, 1.0, out_data))),)

        out = self._unary(functional.sigmoid_forward, backward)
        out_data = out.data
        return out

    def abs(self):
        """Elementwise absolute value (subgradient 0 at the kink)."""
        a = self.data
        sign = np.sign(a)

        def backward(g):
            return ((self, _k(np.multiply, g, sign)),)

        if _TRACE is not None:
            _TRACE.kernel(sign, np.sign, a, sign)
        return Tensor._make(np.absolute(a), (self,), backward, np.absolute, (a,))

    def clip_min(self, low):
        """Elementwise ``max(x, low)`` with pass-through gradient above ``low``."""
        a = self.data
        mask = np.greater(a, low)

        def backward(g):
            return ((self, _k(np.multiply, g, mask)),)

        if _TRACE is not None:
            _TRACE.kernel(mask, np.greater, a, low, mask)
        return Tensor._make(np.maximum(a, low), (self,), backward, _maximum_into, (a, low))

    def maximum(self, other):
        """Elementwise maximum of two tensors (ties send gradient left)."""
        other = as_tensor(other)
        a, b = self.data, other.data
        take_self = np.greater_equal(a, b)

        def backward(g):
            grads = []
            if self.requires_grad:
                grads.append((self, _unbroadcast(_k(np.multiply, g, take_self), self.shape)))
            if other.requires_grad:
                grads.append((other, _unbroadcast(
                    _k(np.multiply, g, _k(np.invert, take_self)), other.shape)))
            return grads

        if _TRACE is not None:
            _TRACE.kernel(take_self, np.greater_equal, a, b, take_self)
        return Tensor._make(np.where(take_self, a, b), (self, other), backward,
                            _where_into, (take_self, a, b))

    # ------------------------------------------------------------------
    # reductions and reshaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        """Sum over ``axis`` (all elements when None)."""
        a = self.data
        shape = self.shape

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            # a contiguous copy, not the broadcast view: BLAS matmuls and
            # reductions downstream can round a zero-stride operand
            # differently from a contiguous one
            return ((self, _k(_broadcast_into, g, shape)),)

        return Tensor._make(a.sum(axis=axis, keepdims=keepdims), (self,), backward,
                            _sum_into, (a, axis, keepdims))

    def mean(self, axis=None, keepdims=False):
        """Arithmetic mean over ``axis`` (all elements when None)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = math.prod(self.data.shape[ax] for ax in axes)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def _view_or_copy(self, data, backward, fn, arg):
        """Node ``data = fn(self.data, arg)``: refreshed on a replay unless a view."""
        kernel = None
        if _TRACE is not None and not (isinstance(data, np.ndarray)
                                       and _root(data) is _root(self.data)):
            kernel = _copy_into
        return Tensor._make(data, (self,), backward, kernel, (fn, self.data, arg))

    def reshape(self, *shape):
        """Return a tensor viewing the same data with a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old_shape = self.shape

        def backward(g):
            return ((self, g.reshape(old_shape)),)

        return self._view_or_copy(self.data.reshape(shape), backward, np.reshape, shape)

    @property
    def T(self):
        """Matrix transpose (2-D tensors)."""
        def backward(g):
            return ((self, g.T),)

        return Tensor._make(self.data.T, (self,), backward)

    def __getitem__(self, index):
        shape = self.shape
        dtype = self.data.dtype

        def backward(g):
            return ((self, _k(_scatter_into, g, index, shape, dtype)),)

        return self._view_or_copy(self.data[index], backward, operator.getitem, index)

    @staticmethod
    def concatenate(tensors, axis=0):
        """Concatenate tensors along ``axis``, differentiable in each input."""
        tensors = [as_tensor(t) for t in tensors]
        arrays = [t.data for t in tensors]
        sizes = [a.shape[axis] for a in arrays]

        def backward(g):
            pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
            return tuple((t, piece) for t, piece in zip(tensors, pieces))

        return Tensor._make(np.concatenate(arrays, axis=axis), tuple(tensors), backward,
                            np.concatenate, (arrays, axis))

    @staticmethod
    def where(condition, a, b):
        """Differentiable ``numpy.where`` over a boolean ``condition`` array."""
        a = as_tensor(a)
        b = as_tensor(b)
        cond = np.asarray(condition, dtype=bool)

        def backward(g):
            grads = []
            if a.requires_grad:
                grads.append((a, _unbroadcast(_k(np.multiply, g, cond), a.shape)))
            if b.requires_grad:
                grads.append((b, _unbroadcast(_k(np.multiply, g, _k(np.invert, cond)), b.shape)))
            return grads

        return Tensor._make(np.where(cond, a.data, b.data), (a, b), backward,
                            _where_into, (cond, a.data, b.data))


def linear(x, weight, bias):
    """Fused affine autograd op: ``x @ weight + bias`` as ONE graph node.

    Replaces the two-node ``matmul`` + broadcast-``add`` chain every
    :class:`~repro.nn.layers.Linear` layer used to emit.  One node means
    one output allocation in the forward (the bias adds in place on the
    matmul result), one closure, and one dict round-trip per layer in
    :meth:`Tensor.backward` instead of two.

    Gradients match the unfused chain exactly: ``g @ W.T`` into the
    input, ``x.T @ g`` into the weight and a batch-sum into the bias —
    verified against the unfused composition and finite differences in
    ``tests/nn/test_fused_fastpath.py``.

    Supports 2-D batches ``(n, in)`` and single rows ``(in,)``.
    """
    x = as_tensor(x)
    weight = as_tensor(weight)
    bias = as_tensor(bias)
    args = (x.data, weight.data, bias.data)

    def backward(g):
        # a frozen weight (e.g. the black box inside the CF loss) or a
        # constant input gets no gradient computed
        grads = []
        if x.requires_grad:
            grads.append((x, _k(np.matmul, g, weight.data.T)))
        if weight.requires_grad:
            grads.append((weight, _k(np.outer, x.data, g) if g.ndim == 1
                           else _k(np.matmul, x.data.T, g)))
        if bias.requires_grad:
            grads.append((bias, g if g.ndim == 1 else _k(_sum_into, g, 0, False)))
        return grads

    return Tensor._make(functional.linear_forward(*args), (x, weight, bias), backward,
                        functional.linear_forward, args)
