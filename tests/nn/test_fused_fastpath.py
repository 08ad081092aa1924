"""Fast-path engine parity: fused kernels, graph-free inference, float64.

Three guarantees pinned here:

1. The fused ``linear`` op matches the unfused ``x @ W + b`` chain
   exactly (forward AND all three gradients) and passes float64
   gradcheck against central finite differences.
2. ``Module.forward_array`` (the graph-free inference path) reproduces
   the ``no_grad`` graph path bit for bit, layer by layer and through
   whole networks — including training-mode dropout given the same rng.
3. One float type: float32, int and bool inputs come back float64.
"""

import numpy as np
import pytest

from repro.models import ConditionalVAE
from repro.nn import (
    Dropout,
    Linear,
    Module,
    ReLU,
    Sequential,
    Tensor,
    linear,
    no_grad,
)
from repro.utils.validation import check_2d_fast

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


def test_float32_int_and_bool_inputs_come_back_float64():
    """float64 is the one float type: every entry point converts to it."""
    layer = Linear(4, 3, np.random.default_rng(0))
    vae = ConditionalVAE(4, np.random.default_rng(1))
    base = np.arange(8).reshape(2, 4) % 2
    for x in (base.astype(np.float32), base, base.astype(bool)):
        assert Tensor(x).data.dtype == np.float64
        assert layer.forward_array(x).dtype == np.float64
        assert all(out.dtype == np.float64 for out in vae.encode_array(x, [0, 1]))
        assert check_2d_fast(x).dtype == np.float64
