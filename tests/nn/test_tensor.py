"""Unit tests for the autograd Tensor: forward semantics and graph rules."""

import numpy as np
import pytest

from repro.nn import Tensor, as_tensor, is_grad_enabled, linear, no_grad


class TestConstruction:
    def test_wraps_array_as_float64(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64
        assert t.shape == (3,)

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_from_scalar(self):
        t = as_tensor(3.5)
        assert t.item() == 3.5

    def test_len_and_size(self):
        t = Tensor(np.zeros((4, 3)))
        assert len(t) == 4
        assert t.size == 12
        assert t.ndim == 2

    def test_repr_mentions_grad_flag(self):
        assert "requires_grad=True" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))


class TestArithmeticForward:
    def test_add(self):
        out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(out.data, [4.0, 6.0])

    def test_radd_scalar(self):
        out = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(out.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_broadcast(self):
        out = Tensor(np.ones((2, 3))) * Tensor([1.0, 2.0, 3.0])
        np.testing.assert_allclose(out.data, [[1, 2, 3], [1, 2, 3]])

    def test_div(self):
        np.testing.assert_allclose((Tensor([6.0]) / 3.0).data, [2.0])
        np.testing.assert_allclose((6.0 / Tensor([3.0])).data, [2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([3.0]) ** 2).data, [9.0])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_allclose((a @ b).data, [[3.0], [7.0]])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])


class TestNonlinearForward:
    def test_relu(self):
        np.testing.assert_allclose(Tensor([-1.0, 0.0, 2.0]).relu().data, [0.0, 0.0, 2.0])

    def test_sigmoid_bounds(self):
        out = Tensor([-1000.0, 0.0, 1000.0]).sigmoid().data
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_tanh(self):
        np.testing.assert_allclose(Tensor([0.0]).tanh().data, [0.0])

    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.5])
        np.testing.assert_allclose(x.exp().log().data, x.data)

    def test_abs(self):
        np.testing.assert_allclose(Tensor([-2.0, 3.0]).abs().data, [2.0, 3.0])

    def test_sqrt(self):
        np.testing.assert_allclose(Tensor([4.0, 9.0]).sqrt().data, [2.0, 3.0])

    def test_clip_min(self):
        np.testing.assert_allclose(Tensor([-1.0, 2.0]).clip_min(0.0).data, [0.0, 2.0])

    def test_maximum(self):
        out = Tensor([1.0, 5.0]).maximum(Tensor([3.0, 2.0]))
        np.testing.assert_allclose(out.data, [3.0, 5.0])


class TestReductionsAndShape:
    def test_sum_all(self):
        assert Tensor([[1.0, 2.0], [3.0, 4.0]]).sum().item() == 10.0

    def test_sum_axis_keepdims(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]]).sum(axis=0, keepdims=True)
        assert out.shape == (1, 2)
        np.testing.assert_allclose(out.data, [[4.0, 6.0]])

    def test_mean(self):
        assert Tensor([[2.0, 4.0]]).mean().item() == 3.0

    def test_mean_axis(self):
        out = Tensor([[1.0, 3.0], [5.0, 7.0]]).mean(axis=1)
        np.testing.assert_allclose(out.data, [2.0, 6.0])

    def test_reshape(self):
        out = Tensor(np.arange(6.0)).reshape(2, 3)
        assert out.shape == (2, 3)

    def test_reshape_tuple_arg(self):
        out = Tensor(np.arange(6.0)).reshape((3, 2))
        assert out.shape == (3, 2)

    def test_transpose(self):
        out = Tensor(np.ones((2, 3))).T
        assert out.shape == (3, 2)

    def test_getitem(self):
        out = Tensor([[1.0, 2.0], [3.0, 4.0]])[1]
        np.testing.assert_allclose(out.data, [3.0, 4.0])

    def test_concatenate(self):
        out = Tensor.concatenate([Tensor([[1.0]]), Tensor([[2.0]])], axis=0)
        np.testing.assert_allclose(out.data, [[1.0], [2.0]])

    def test_where(self):
        out = Tensor.where(np.array([True, False]), Tensor([1.0, 1.0]), Tensor([9.0, 9.0]))
        np.testing.assert_allclose(out.data, [1.0, 9.0])


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_simple_chain(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0 + 1.0).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [3.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates(self):
        # y = x*x + x*x should give dy/dx = 4x via two paths
        x = Tensor([3.0], requires_grad=True)
        a = x * x
        b = x * x
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_reused_node_in_graph(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = (y + y).sum()
        z.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_scalar_node_with_three_gradient_contributions(self):
        # the third contribution to the scalar ``s`` accumulates in place
        # into the sum of the first two, which must be a (0-d) array
        w = Tensor(np.ones(3), requires_grad=True)
        s = (w * w).sum()
        (s * 2.0 + s * 3.0 + s * s).backward()
        np.testing.assert_array_equal(w.grad, [22.0, 22.0, 22.0])  # 2w(5 + 2s)

    def test_broadcast_add_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad


class TestLeafOnlyGradients:
    """``.grad`` lands on leaves only; frozen or constant operands get none."""

    def test_interior_node_grad_stays_none(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        hidden = x * 3.0
        out = hidden.exp().sum()
        out.backward()
        assert hidden.grad is None
        assert out.grad is None
        np.testing.assert_allclose(x.grad, 3.0 * np.exp(3.0 * x.data))

    def test_leaf_as_root_gets_grad(self):
        x = Tensor([2.0], requires_grad=True)
        x.backward()
        np.testing.assert_array_equal(x.grad, [1.0])

    def test_frozen_linear_weight_gets_no_grad(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 2)))  # frozen: no requires_grad
        bias = Tensor(rng.normal(size=2), requires_grad=True)
        linear(x, weight, bias).sum().backward()
        assert weight.grad is None
        np.testing.assert_array_equal(x.grad, np.ones((5, 2)) @ weight.data.T)
        np.testing.assert_array_equal(bias.grad, [5.0, 5.0])

    def test_requires_grad_flipped_after_forward_is_honoured(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        weight = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        bias = Tensor(np.zeros(2), requires_grad=True)
        out = linear(x, weight, bias).sum()
        weight.requires_grad = False  # frozen between forward and backward
        out.backward()
        assert weight.grad is None
        np.testing.assert_array_equal(x.grad, np.ones((4, 2)) @ weight.data.T)

    def test_constant_operand_gets_no_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        mask = Tensor([0.0, 2.0])
        (x * mask + mask).sum().backward()
        assert mask.grad is None
        np.testing.assert_array_equal(x.grad, [0.0, 2.0])

    def test_sum_into_matmul_matches_contiguous_gradient(self):
        # a (n, 1) output summed straight into the weight's ``x.T @ g``:
        # BLAS rounds a zero-stride broadcast ``g`` differently, so the
        # pinned values are those of a contiguous ones matrix
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 12))
        weight = Tensor(rng.normal(size=(12, 1)), requires_grad=True)
        bias = Tensor(np.zeros(1), requires_grad=True)
        linear(x, weight, bias).sum().backward()
        np.testing.assert_array_equal(weight.grad, x.T @ np.ones((300, 1)))


class TestNoGrad:
    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = x * 2.0
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert is_grad_enabled()
