"""Unit tests for loss functions, including stability and gradient flow."""

import numpy as np

from repro.nn import Tensor, bce_with_logits, gaussian_kl, hinge_loss, logsumexp, mse_loss


class TestBCEWithLogits:
    def test_matches_reference(self):
        logits = np.array([0.5, -1.2, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        got = bce_with_logits(Tensor(logits), targets).item()
        assert abs(got - expected) < 1e-10

    def test_stable_for_huge_logits(self):
        out = bce_with_logits(Tensor([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert np.isfinite(out.item())
        assert out.item() < 1e-6

    def test_gradient_flows(self):
        logits = Tensor([0.3, -0.7], requires_grad=True)
        bce_with_logits(logits, np.array([1.0, 0.0])).backward()
        assert logits.grad is not None


class TestHinge:
    def test_zero_when_margin_satisfied(self):
        # desired class 1 => want logit >= margin
        out = hinge_loss(Tensor([2.0, 3.0]), np.array([1, 1]), margin=1.0)
        assert out.item() == 0.0

    def test_penalises_wrong_side(self):
        out = hinge_loss(Tensor([-1.0]), np.array([1]), margin=1.0)
        assert out.item() == 2.0

    def test_desired_zero_flips_sign(self):
        out = hinge_loss(Tensor([-2.0]), np.array([0]), margin=1.0)
        assert out.item() == 0.0
        out = hinge_loss(Tensor([2.0]), np.array([0]), margin=1.0)
        assert out.item() == 3.0

    def test_gradient_flows_only_from_violations(self):
        logits = Tensor([-1.0, 5.0], requires_grad=True)
        hinge_loss(logits, np.array([1, 1])).backward()
        assert logits.grad[0] != 0.0
        assert logits.grad[1] == 0.0


class TestDistancesAndKL:
    def test_mse(self):
        out = mse_loss(Tensor([2.0]), Tensor([0.0]))
        assert out.item() == 4.0

    def test_kl_zero_at_standard_normal(self):
        mu = Tensor(np.zeros((3, 4)))
        log_var = Tensor(np.zeros((3, 4)))
        assert abs(gaussian_kl(mu, log_var).item()) < 1e-12

    def test_kl_positive_elsewhere(self):
        mu = Tensor(np.ones((2, 3)))
        log_var = Tensor(np.zeros((2, 3)))
        assert gaussian_kl(mu, log_var).item() > 0

    def test_kl_matches_closed_form(self):
        mu_val = np.array([[0.5, -0.2]])
        lv_val = np.array([[0.1, -0.3]])
        expected = -0.5 * np.sum(1 + lv_val - mu_val ** 2 - np.exp(lv_val))
        got = gaussian_kl(Tensor(mu_val), Tensor(lv_val)).item()
        assert abs(got - expected) < 1e-10


class TestSoftmaxLogsumexp:
    def test_logsumexp_stable(self):
        out = logsumexp(Tensor([[1000.0, 1000.0]]))
        assert np.isfinite(out.data).all()
        assert abs(out.data[0, 0] - (1000.0 + np.log(2))) < 1e-9

    def test_logsumexp_matches_scipy(self):
        from scipy.special import logsumexp as scipy_lse

        x = np.random.default_rng(2).normal(size=(3, 4))
        got = logsumexp(Tensor(x), axis=1).data.ravel()
        np.testing.assert_allclose(got, scipy_lse(x, axis=1), atol=1e-12)
