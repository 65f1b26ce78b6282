"""Training losses: L1 on annotated poses, a robust penalty on weak depths.

The robust penalty is the Geman-McClure function rho(x) = x^2 / (x^2 + alpha),
which saturates at 1 for large residuals so that occluded joints, whose
sensor depth belongs to the occluder rather than the person, stop
contributing gradient instead of dragging the pose toward the occluder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RobustLossConfig:
    """alpha is in squared millimeters; lambda_weight balances the two terms."""

    alpha: float = 100.0
    lambda_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.lambda_weight < 0:
            raise ValueError(f"lambda_weight must be >= 0, got {self.lambda_weight}")


def gm_loss(x: np.ndarray, alpha: float) -> np.ndarray:
    """Geman-McClure penalty x^2 / (x^2 + alpha), elementwise.

    Bounded in [0, 1], even, and rho(sqrt(alpha)) = 1/2: alpha sets the
    squared residual scale beyond which a measurement is treated as an
    outlier.  A residual whose square overflows gets the limit 1.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    arr = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        sq = arr * arr
    return np.divide(sq, sq + alpha, out=np.ones_like(sq), where=~np.isinf(sq))


def gm_grad(x: np.ndarray, alpha: float) -> np.ndarray:
    """Derivative of :func:`gm_loss`: 2 * alpha * x / (x^2 + alpha)^2.

    Peaks at |x| = sqrt(alpha / 3) and decays to zero for large
    residuals, which is what rejects outliers.  A residual whose squared
    denominator overflows gets the limit 0.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    arr = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        numer = 2.0 * alpha * arr
        denom = arr * arr + alpha
        denom = denom * denom
    return np.divide(numer, denom, out=np.zeros_like(denom), where=~np.isinf(denom))


def l1_pose_loss(pred: np.ndarray, gt: np.ndarray):
    """Mean absolute coordinate error per pose, summed over a batch.

    A single pose (any shape) contributes the mean |pred - gt| over its
    coordinates; with a leading batch axis the per-pose means are summed
    so each pose carries the same weight regardless of batch size.
    Returns (value, gradient with respect to pred); the gradient entries
    are sign(pred - gt) / coords_per_pose, zero where pred == gt.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if pred.size == 0:
        return 0.0, np.zeros_like(pred)
    diff = pred - gt
    if pred.ndim <= 1:
        n = pred.size
    else:
        n = int(np.prod(pred.shape[1:]))
    value = float(np.abs(diff).sum() / n)
    grad = np.sign(diff) / n
    return value, grad


def total_loss(
    pred_poses: np.ndarray,
    gt_poses: np.ndarray,
    pred_depths: np.ndarray,
    target_depths: np.ndarray,
    valid: np.ndarray,
    config: RobustLossConfig,
):
    """Mixed objective over an annotated half-batch and a weak half-batch.

    value = sum-of-per-pose-mean L1 + lambda * sum over samples and valid
    joints of rho(pred_depth - target_depth).  Invalid depth entries
    (failed readouts) contribute exactly zero loss and zero gradient.
    Returns (value, grad wrt pred_poses, grad wrt pred_depths).
    """
    pred_depths = np.asarray(pred_depths, dtype=np.float64)
    target_depths = np.asarray(target_depths, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    if pred_depths.shape != target_depths.shape or pred_depths.shape != valid.shape:
        raise ValueError(
            f"depth shapes must agree: pred {pred_depths.shape}, "
            f"target {target_depths.shape}, valid {valid.shape}"
        )

    value, grad_poses = l1_pose_loss(pred_poses, gt_poses)

    grad_depths = np.zeros_like(pred_depths)
    if pred_depths.size and config.lambda_weight > 0.0:
        residual = np.where(valid, pred_depths - target_depths, 0.0)
        value += config.lambda_weight * float(gm_loss(residual[valid], config.alpha).sum())
        grad_depths = np.where(valid, config.lambda_weight * gm_grad(residual, config.alpha), 0.0)
    return value, grad_poses, grad_depths
