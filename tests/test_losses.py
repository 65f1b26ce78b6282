"""Loss function tests.

The robust penalty is checked against its closed forms: value 1/2 at the
scale parameter's square root, gradient peak at sqrt(alpha/3) with height
3*sqrt(3)/(8*sqrt(alpha)), and a vanishing tail.  The L1 term and the
weak depth term are checked against hand-computed values and against
finite differences on a few entries.
"""

import math
import warnings

import numpy as np
import pytest

from poselift.losses import gm_grad, gm_loss, l1_pose_loss, total_loss


class TestGmLoss:
    def test_hand_values(self):
        assert gm_loss(np.array(0.0), 100.0) == 0.0
        assert gm_loss(np.array(1.0), 1.0) == 0.5
        # x = 2, alpha = 4: 4 / 8.
        assert gm_loss(np.array(2.0), 4.0) == 0.5
        # x = 3, alpha = 1: 9 / 10.
        assert gm_loss(np.array(3.0), 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_half_at_scale_parameter(self):
        """rho(x) = 1/2 exactly when alpha = x^2, across six decades of x."""
        for x in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            assert gm_loss(np.array(x), x * x) == 0.5
            assert gm_loss(np.array(-x), x * x) == 0.5

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for alpha in (0.01, 1.0, 100.0, 1e4):
            x = rng.uniform(-1e6, 1e6, size=5000)
            rho = gm_loss(x, alpha)
            assert (rho >= 0.0).all()
            assert (rho < 1.0).all()

    def test_even_and_monotone_in_magnitude(self):
        x = np.linspace(0.0, 500.0, 4000)
        rho = gm_loss(x, 100.0)
        assert (np.diff(rho) > 0.0).all()
        np.testing.assert_array_equal(gm_loss(-x, 100.0), rho)

    def test_saturates_toward_one(self):
        assert gm_loss(np.array(1e8), 100.0) > 1.0 - 1e-12

    def test_overflowing_square_gives_the_limit_without_warnings(self):
        x = np.array([1e200, -1e300, np.inf, 3.0, -40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho = gm_loss(x, 2500.0)
        np.testing.assert_array_equal(rho[:3], 1.0)
        # Finite squares keep the plain formula's bits.
        finite = x[3:]
        assert rho[3:].tobytes() == (finite * finite / (finite * finite + 2500.0)).tobytes()

    def test_alpha_validation(self):
        """All three functions reject a non-positive or NaN alpha alike."""
        for alpha in (0.0, -1.0, math.nan):
            for call in (lambda: gm_loss(np.zeros(3), alpha), lambda: gm_grad(np.zeros(3), alpha),
                         lambda: total_loss(np.zeros(3), np.zeros(3), alpha, 1.0)):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == f"alpha must be > 0, got {alpha}"


class TestGmGrad:
    def test_hand_values(self):
        assert gm_grad(np.array(0.0), 123.0) == 0.0
        # x = 1, alpha = 1: 2 * 1 * 1 / 4.
        assert gm_grad(np.array(1.0), 1.0) == 0.5
        assert gm_grad(np.array(-1.0), 1.0) == -0.5

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for alpha in (1.0, 100.0, 2500.0):
            x = rng.uniform(-5.0, 5.0, size=200) * math.sqrt(alpha)
            h = 1e-6 * math.sqrt(alpha)
            numeric = (gm_loss(x + h, alpha) - gm_loss(x - h, alpha)) / (2 * h)
            np.testing.assert_allclose(gm_grad(x, alpha), numeric, rtol=1e-6, atol=1e-10)

    def test_peak_location_and_height(self):
        """|rho'| peaks at sqrt(alpha/3), value 3*sqrt(3)/(8*sqrt(alpha))."""
        for alpha in (0.01, 1.0, 100.0, 2500.0, 1e4):
            x_star = math.sqrt(alpha / 3.0)
            peak = gm_grad(np.array(x_star), alpha)
            assert peak == pytest.approx(3.0 * math.sqrt(3.0) / (8.0 * math.sqrt(alpha)), rel=1e-12)
            x = np.linspace(0.0, 10.0 * math.sqrt(alpha), 20000)
            values = gm_grad(x, alpha)
            assert values.max() <= peak + 1e-15
            assert abs(x[values.argmax()] - x_star) < x[1] - x[0] + 1e-12

    def test_monotone_decreasing_beyond_the_peak(self):
        for alpha in (1.0, 2500.0):
            x = np.geomspace(math.sqrt(alpha / 3.0), 1e4 * math.sqrt(alpha), 5000)
            values = gm_grad(x, alpha)
            assert (np.diff(values) < 0.0).all()

    def test_tail_vanishes(self):
        """Far outliers contribute almost no gradient, the rejection property."""
        for alpha in (100.0, 2500.0):
            tail = np.abs(gm_grad(np.array([10.0, 100.0, 1e4]) * math.sqrt(alpha), alpha))
            assert (tail < 0.02 / math.sqrt(alpha)).all()
            assert tail[2] < tail[1] < tail[0]

    def test_overflowing_denominator_gives_zero_without_warnings(self):
        x = np.array([1e200, -1e100, 1e306, -np.inf, 3.0, -40.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = gm_grad(x, 2500.0)
        np.testing.assert_array_equal(grad[:4], 0.0)
        finite = x[4:]
        denom = finite * finite + 2500.0
        assert grad[4:].tobytes() == (2.0 * 2500.0 * finite / (denom * denom)).tobytes()


class TestL1PoseLoss:
    def test_hand_case_with_batch(self):
        """Each pose contributes the mean |diff| over its own coordinates."""
        pred = np.array([[1.0, 2.0], [3.0, 4.0]])
        gt = np.array([[0.0, 2.0], [5.0, 4.0]])
        value, grad = l1_pose_loss(pred, gt)
        assert value == 1.5  # 0.5 from the first pose, 1.0 from the second
        np.testing.assert_array_equal(grad, [[0.5, 0.0], [-0.5, 0.0]])

    def test_single_pose_mean(self):
        value, grad = l1_pose_loss(np.array([2.0, -2.0, 0.0]), np.zeros(3))
        assert value == pytest.approx(4.0 / 3.0, abs=1e-15)
        np.testing.assert_allclose(grad, [1.0 / 3.0, -1.0 / 3.0, 0.0], atol=1e-15)

    def test_batch_size_invariance(self):
        """Stacking the same pose twice doubles the value, per-pose weights equal."""
        rng = np.random.default_rng(2)
        pred = rng.normal(size=(1, 17, 3))
        gt = rng.normal(size=(1, 17, 3))
        single, _ = l1_pose_loss(pred, gt)
        double, _ = l1_pose_loss(
            np.concatenate([pred, pred]), np.concatenate([gt, gt])
        )
        assert double == pytest.approx(2.0 * single, rel=1e-12)

    def test_flat_vector_equals_batch_of_one(self):
        rng = np.random.default_rng(7)
        pred = rng.normal(size=51)
        gt = rng.normal(size=51)
        flat, _ = l1_pose_loss(pred, gt)
        batched, _ = l1_pose_loss(pred[None], gt[None])
        assert flat == batched

    def test_empty_and_mismatched(self):
        value, grad = l1_pose_loss(np.zeros((0, 5)), np.zeros((0, 5)))
        assert value == 0.0 and grad.shape == (0, 5)
        with pytest.raises(ValueError):
            l1_pose_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_zero_residual_gives_zero_gradient(self):
        pose = np.random.default_rng(3).normal(size=(2, 17, 3))
        value, grad = l1_pose_loss(pose, pose.copy())
        assert value == 0.0
        assert not grad.any()


class TestTotalLoss:
    def _setup(self, seed=4):
        rng = np.random.default_rng(seed)
        pred_d = rng.normal(scale=30.0, size=(2, 14))
        target_d = rng.normal(scale=30.0, size=(2, 14))
        valid = rng.random(size=(2, 14)) > 0.3
        return pred_d, np.where(valid, target_d, np.nan), valid

    def test_parameter_validation(self):
        pred_d, target_d, _ = self._setup()
        for alpha in (0.0, -5.0, math.nan):
            with pytest.raises(ValueError, match="alpha must be > 0"):
                total_loss(pred_d, target_d, alpha, 1.0)
        for lam in (-0.1, math.inf, math.nan):
            with pytest.raises(ValueError, match="lambda_weight must be finite and >= 0"):
                total_loss(pred_d, target_d, 100.0, lam)
        assert total_loss(pred_d, target_d, 100.0, 0.0)[0] == 0.0

    def test_lambda_zero_reduces_to_l1(self):
        """With lambda = 0 the weak term adds nothing to the L1 objective:
        zero value and an all-zero gradient."""
        pred_d, target_d, _ = self._setup()
        value, grad_depths = total_loss(pred_d, target_d, 100.0, 0.0)
        assert value == 0.0
        assert grad_depths.shape == pred_d.shape
        assert not grad_depths.any()

    def test_value_is_weighted_robust_sum(self):
        pred_d, target_d, valid = self._setup()
        value, _ = total_loss(pred_d, target_d, 400.0, 0.7)
        residual = (pred_d - target_d)[valid]
        expected = 0.7 * gm_loss(residual, 400.0).sum()
        assert value == pytest.approx(expected, rel=1e-14)

    def test_invalid_entries_contribute_nothing(self):
        """A NaN target is skipped: its prediction changes neither the value
        nor the rest of the gradient, and its own gradient is zero.  A
        finite target is always scored."""
        pred_d, target_d, valid = self._setup()
        ref = total_loss(pred_d, target_d, 100.0, 1.0)
        moved = np.where(valid, pred_d, 1e12)
        out = total_loss(moved, target_d, 100.0, 1.0)
        assert out[0] == ref[0]
        np.testing.assert_array_equal(out[1], ref[1])
        assert not out[1][~valid].any()
        # A finite target is scored however far off it is: 1e12 mm away,
        # each adds the saturated penalty of 1.
        scored = total_loss(pred_d, np.where(valid, target_d, 1e12), 100.0, 1.0)
        assert (~valid).any() and scored[0] == pytest.approx(ref[0] + (~valid).sum(), rel=1e-12)
        np.testing.assert_array_equal(scored[1][valid], ref[1][valid])

    def test_depth_gradient_matches_finite_differences(self):
        pred_d, target_d, valid = self._setup(seed=5)
        _, grad_depths = total_loss(pred_d, target_d, 900.0, 0.3)
        h = 1e-5
        rng = np.random.default_rng(6)
        for _ in range(10):
            i, j = rng.integers(pred_d.shape[0]), rng.integers(pred_d.shape[1])
            bumped = pred_d.copy()
            bumped[i, j] += h
            up = total_loss(bumped, target_d, 900.0, 0.3)[0]
            bumped[i, j] -= 2 * h
            down = total_loss(bumped, target_d, 900.0, 0.3)[0]
            numeric = (up - down) / (2 * h)
            assert grad_depths[i, j] == pytest.approx(numeric, abs=1e-8)

    def test_shape_mismatch_raises(self):
        pred_d, target_d, _ = self._setup()
        with pytest.raises(ValueError):
            total_loss(pred_d, target_d[:, :5], 100.0, 1.0)

    def test_empty_depth_batch(self):
        """No weak samples: zero loss and an empty gradient."""
        value, grad_depths = total_loss(np.zeros((0, 14)), np.zeros((0, 14)), 100.0, 1.0)
        assert value == 0.0
        assert grad_depths.shape == (0, 14)
