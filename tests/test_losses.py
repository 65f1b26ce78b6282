"""Loss function tests.

The robust penalty is checked against its closed forms: value 1/2 at the
scale parameter's square root, gradient peak at sqrt(alpha/3) with height
3*sqrt(3)/(8*sqrt(alpha)), and a vanishing tail.  The L1 term and the
mixed objective are checked against hand-computed values and against
finite differences on a few entries.
"""

import math
import warnings

import numpy as np
import pytest

from poselift.losses import RobustLossConfig, gm_grad, gm_loss, l1_pose_loss, total_loss


class TestRobustLossConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RobustLossConfig(alpha=0.0)
        with pytest.raises(ValueError):
            RobustLossConfig(alpha=-5.0)
        with pytest.raises(ValueError):
            RobustLossConfig(lambda_weight=-0.1)
        assert RobustLossConfig(lambda_weight=0.0).lambda_weight == 0.0


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
        with pytest.raises(ValueError):
            gm_loss(np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            gm_grad(np.zeros(3), -1.0)


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
        pred_poses = rng.normal(size=(3, 12))
        gt_poses = rng.normal(size=(3, 12))
        pred_d = rng.normal(scale=30.0, size=(2, 14))
        target_d = rng.normal(scale=30.0, size=(2, 14))
        valid = rng.random(size=(2, 14)) > 0.3
        return pred_poses, gt_poses, pred_d, target_d, valid

    def test_lambda_zero_reduces_to_l1(self):
        pred_poses, gt_poses, pred_d, target_d, valid = self._setup()
        config = RobustLossConfig(alpha=100.0, lambda_weight=0.0)
        value, grad_poses, grad_depths = total_loss(
            pred_poses, gt_poses, pred_d, target_d, valid, config
        )
        l1_value, l1_grad = l1_pose_loss(pred_poses, gt_poses)
        assert value == l1_value
        np.testing.assert_array_equal(grad_poses, l1_grad)
        assert not grad_depths.any()

    def test_value_is_l1_plus_weighted_robust_sum(self):
        pred_poses, gt_poses, pred_d, target_d, valid = self._setup()
        config = RobustLossConfig(alpha=400.0, lambda_weight=0.7)
        value, _, _ = total_loss(pred_poses, gt_poses, pred_d, target_d, valid, config)
        l1_value, _ = l1_pose_loss(pred_poses, gt_poses)
        residual = (pred_d - target_d)[valid]
        expected = l1_value + 0.7 * gm_loss(residual, 400.0).sum()
        assert value == pytest.approx(expected, rel=1e-14)

    def test_invalid_entries_contribute_nothing(self):
        """Garbage behind the validity mask changes neither value nor gradient."""
        pred_poses, gt_poses, pred_d, target_d, valid = self._setup()
        config = RobustLossConfig(alpha=100.0, lambda_weight=1.0)
        ref = total_loss(pred_poses, gt_poses, pred_d, target_d, valid, config)
        corrupted = np.where(valid, target_d, 1e12)
        out = total_loss(pred_poses, gt_poses, pred_d, corrupted, valid, config)
        assert out[0] == ref[0]
        np.testing.assert_array_equal(out[1], ref[1])
        np.testing.assert_array_equal(out[2], ref[2])
        assert not out[2][~valid].any()

    def test_depth_gradient_matches_finite_differences(self):
        pred_poses, gt_poses, pred_d, target_d, valid = self._setup(seed=5)
        config = RobustLossConfig(alpha=900.0, lambda_weight=0.3)
        _, _, grad_depths = total_loss(pred_poses, gt_poses, pred_d, target_d, valid, config)
        h = 1e-5
        rng = np.random.default_rng(6)
        for _ in range(10):
            i, j = rng.integers(pred_d.shape[0]), rng.integers(pred_d.shape[1])
            bumped = pred_d.copy()
            bumped[i, j] += h
            up = total_loss(pred_poses, gt_poses, bumped, target_d, valid, config)[0]
            bumped[i, j] -= 2 * h
            down = total_loss(pred_poses, gt_poses, bumped, target_d, valid, config)[0]
            numeric = (up - down) / (2 * h)
            assert grad_depths[i, j] == pytest.approx(numeric, abs=1e-8)

    def test_shape_mismatch_raises(self):
        pred_poses, gt_poses, pred_d, target_d, valid = self._setup()
        config = RobustLossConfig()
        with pytest.raises(ValueError):
            total_loss(pred_poses, gt_poses, pred_d, target_d[:, :5], valid, config)
        with pytest.raises(ValueError):
            total_loss(pred_poses, gt_poses, pred_d, target_d, valid[:1], config)

    def test_empty_depth_batch(self):
        """Two poses with unit residual everywhere sum to 2; no depth term."""
        config = RobustLossConfig(alpha=100.0, lambda_weight=1.0)
        value, _, grad_depths = total_loss(
            np.zeros((2, 6)), np.ones((2, 6)),
            np.zeros((0, 14)), np.zeros((0, 14)), np.zeros((0, 14), dtype=bool), config,
        )
        assert value == 2.0
        assert grad_depths.shape == (0, 14)
