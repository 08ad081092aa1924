"""Fast-path engine parity: fused kernels, graph-free inference, dtypes.

Three guarantees pinned here:

1. The fused ``linear`` op matches the unfused ``x @ W + b`` chain
   exactly (forward AND all three gradients) and passes float64
   gradcheck against central finite differences.
2. ``Module.forward_array`` (the graph-free inference path) reproduces
   the ``no_grad`` graph path bit for bit, layer by layer and through
   whole networks — including training-mode dropout given the same rng.
3. The configurable dtype: float32 fast mode produces float32 tensors
   and parameters, scopes restore cleanly, and float64 stays the
   gradcheck-grade default.
"""

import numpy as np
import pytest

from repro.nn import (
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    as_tensor,
    dtype_scope,
    get_default_dtype,
    linear,
    no_grad,
    set_default_dtype,
)

RNG = np.random.default_rng(11)
EPS = 1e-6
TOL = 1e-5


def numeric_grad(fn, x):
    """Central finite differences of scalar-valued ``fn`` at ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        up = fn(x)
        flat[i] = original - EPS
        down = fn(x)
        flat[i] = original
        grad_flat[i] = (up - down) / (2 * EPS)
    return grad


class TestFusedLinear:
    def _operands(self, batch=5, n_in=4, n_out=3):
        x = RNG.normal(size=(batch, n_in))
        w = RNG.normal(size=(n_in, n_out)) * 0.5
        b = RNG.normal(size=(n_out,))
        return x, w, b

    def test_forward_matches_unfused_exactly(self):
        x, w, b = self._operands()
        fused = linear(Tensor(x), Tensor(w), Tensor(b))
        unfused = Tensor(x) @ Tensor(w) + Tensor(b)
        np.testing.assert_array_equal(fused.data, unfused.data)

    def test_gradients_match_unfused_exactly(self):
        x, w, b = self._operands()
        operands_fused = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        operands_unfused = [Tensor(a, requires_grad=True) for a in (x, w, b)]
        (linear(*operands_fused).sum() * 2.0).backward()
        ((operands_unfused[0] @ operands_unfused[1] + operands_unfused[2])
         .sum() * 2.0).backward()
        for fused_op, unfused_op in zip(operands_fused, operands_unfused):
            np.testing.assert_array_equal(fused_op.grad, unfused_op.grad)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_gradcheck_each_operand(self, slot):
        operands = list(self._operands())

        def fn(arr):
            tensors = [Tensor(a) for a in operands]
            tensors[slot] = Tensor(arr)
            return (linear(*tensors) * Tensor(np.arange(15.0).reshape(5, 3))
                    ).sum().item()

        probe = Tensor(operands[slot].copy(), requires_grad=True)
        tensors = [Tensor(a) for a in operands]
        tensors[slot] = probe
        (linear(*tensors) * Tensor(np.arange(15.0).reshape(5, 3))).sum().backward()
        expected = numeric_grad(fn, operands[slot].copy())
        np.testing.assert_allclose(probe.grad, expected, rtol=TOL, atol=TOL)

    def test_single_row_input(self):
        x, w, b = self._operands(batch=1)
        row = Tensor(x[0], requires_grad=True)
        out = linear(row, Tensor(w), Tensor(b))
        assert out.shape == (3,)
        out.sum().backward()

        def fn(arr):
            return linear(Tensor(arr), Tensor(w), Tensor(b)).sum().item()

        np.testing.assert_allclose(row.grad, numeric_grad(fn, x[0].copy()),
                                   rtol=TOL, atol=TOL)

    def test_layer_uses_fused_node(self):
        layer = Linear(4, 3, np.random.default_rng(0))
        out = layer(Tensor(RNG.normal(size=(2, 4)), requires_grad=True))
        # one fused node: parents are (x, weight, bias), not a matmul chain
        assert len(out._parents) == 3


class TestActivationBackwardReuse:
    """Activation backwards recompute from the forward output only."""

    @pytest.mark.parametrize("op", ["relu", "sigmoid"])
    def test_gradcheck(self, op):
        x = RNG.normal(size=(3, 4))
        if op == "relu":
            x[np.abs(x) < 0.1] = 0.5  # keep away from the kink
        probe = Tensor(x.copy(), requires_grad=True)
        getattr(probe, op)().sum().backward()
        expected = numeric_grad(
            lambda arr: getattr(Tensor(arr), op)().sum().item(), x.copy())
        np.testing.assert_allclose(probe.grad, expected, rtol=TOL, atol=TOL)


class TestInPlaceAccumulation:
    def test_diamond_graph_fan_in(self):
        x = Tensor(RNG.normal(size=(4,)), requires_grad=True)
        y = x * x + x * 3.0 + x  # three paths into x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data + 4.0, rtol=1e-12)

    def test_backward_twice_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).sum().backward()
        first = x.grad.copy()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_shared_subexpression(self):
        x = Tensor(RNG.normal(size=(3,)), requires_grad=True)
        shared = x.sigmoid()
        out = (shared * shared).sum() + shared.sum()
        out.backward()
        expected = numeric_grad(
            lambda arr: ((Tensor(arr).sigmoid().data ** 2) + Tensor(arr).sigmoid().data).sum(),
            x.data.copy())
        np.testing.assert_allclose(x.grad, expected, rtol=TOL, atol=TOL)


class TestForwardArrayParity:
    def _network(self, dropout_seed=None):
        rng = np.random.default_rng(3)
        layers = [Linear(6, 8, rng), ReLU(), Linear(8, 5, rng), ReLU(),
                  Linear(5, 2, rng, init="xavier")]
        if dropout_seed is not None:
            layers.insert(2, Dropout(0.4, np.random.default_rng(dropout_seed)))
        return Sequential(*layers)

    def test_eval_mode_bitwise_identical(self):
        network = self._network().eval()
        x = RNG.normal(size=(7, 6))
        with no_grad():
            graph = network(Tensor(x)).data
        np.testing.assert_array_equal(network.forward_array(x), graph)

    def test_no_tensor_output(self):
        network = self._network().eval()
        out = network.forward_array(RNG.normal(size=(3, 6)))
        assert isinstance(out, np.ndarray) and not isinstance(out, Tensor)

    def test_training_dropout_parity_same_rng(self):
        x = RNG.normal(size=(5, 6))
        graph_net = self._network(dropout_seed=77).train()
        array_net = self._network(dropout_seed=77).train()
        with no_grad():
            graph = graph_net(Tensor(x)).data
        np.testing.assert_allclose(array_net.forward_array(x), graph,
                                   rtol=0, atol=1e-12)

    def test_default_fallback_matches_graph(self):
        class Doubler(Module):
            def forward(self, x):
                return x * 2.0 + 1.0

        module = Doubler()
        x = RNG.normal(size=(3, 2))
        np.testing.assert_array_equal(module.forward_array(x), x * 2.0 + 1.0)


class TestDtypeConfig:
    def teardown_method(self):
        set_default_dtype(np.float64)

    def test_default_is_float64(self):
        assert get_default_dtype() is np.float64
        assert as_tensor([1.0, 2.0]).data.dtype == np.float64

    def test_float32_fast_mode(self):
        set_default_dtype("float32")
        layer = Linear(4, 3, np.random.default_rng(0))
        assert layer.weight.data.dtype == np.float32
        # graph mode follows numpy promotion: float32 in -> float32 out
        out = layer(np.ones((2, 4), dtype=np.float32))
        assert out.data.dtype == np.float32
        # forward_array casts inputs to the parameter dtype itself
        assert layer.forward_array(np.ones((2, 4))).dtype == np.float32

    def test_scope_restores(self):
        with dtype_scope("float32"):
            assert get_default_dtype() is np.float32
            with dtype_scope("float64"):
                assert get_default_dtype() is np.float64
            assert get_default_dtype() is np.float32
        assert get_default_dtype() is np.float64

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int64)

    def test_float32_training_step_stays_float32(self):
        set_default_dtype("float32")
        layer = Linear(3, 1, np.random.default_rng(1))
        out = layer(np.ones((4, 3), dtype=np.float32)).sum()
        out.backward()
        assert layer.weight.grad.dtype == np.float32

    def test_float32_graph_mode_outside_scope(self):
        """A float32 model stays float32 in graph mode after the scope ends."""
        with dtype_scope("float32"):
            layer = Linear(4, 3, np.random.default_rng(0))
        out = layer(np.ones((2, 4), dtype=np.float32))
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert layer.weight.grad.dtype == np.float32

    def test_float32_close_to_float64(self):
        x = RNG.normal(size=(5, 4))
        ref = Linear(4, 2, np.random.default_rng(9))
        with dtype_scope("float32"):
            fast = Linear(4, 2, np.random.default_rng(9))
        np.testing.assert_allclose(fast.forward_array(x.astype(np.float32)),
                                   ref.forward_array(x), rtol=1e-5, atol=1e-5)
