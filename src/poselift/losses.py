"""Training losses: L1 on annotated poses, a robust penalty on weak depths.

The robust penalty is the Geman-McClure function rho(x) = x^2 / (x^2 + alpha),
which saturates at 1 for large residuals so that occluded joints, whose
sensor depth belongs to the occluder rather than the person, stop
contributing gradient instead of dragging the pose toward the occluder.
"""

from __future__ import annotations

import numpy as np


def _check_alpha(alpha: float) -> None:
    if not alpha > 0.0:  # NaN fails every comparison
        raise ValueError(f"alpha must be > 0, got {alpha}")


def gm_loss(x: np.ndarray, alpha: float) -> np.ndarray:
    """Geman-McClure penalty x^2 / (x^2 + alpha), elementwise.

    Bounded in [0, 1], even, and rho(sqrt(alpha)) = 1/2: alpha sets the
    squared residual scale beyond which a measurement is treated as an
    outlier.  A residual whose square overflows gets the limit 1.
    """
    _check_alpha(alpha)
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
    _check_alpha(alpha)
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


def total_loss(pred_depths: np.ndarray, target_depths: np.ndarray, alpha: float, lambda_weight: float):
    """The weak depth term over a weak half-batch.

    value = lambda * sum over samples and valid joints of
    rho(pred_depth - target_depth), with alpha in squared millimeters.
    A NaN target marks an invalid entry (a failed readout), which
    contributes exactly zero loss and zero gradient.  Returns (value,
    grad wrt pred_depths).
    """
    _check_alpha(alpha)
    if not (lambda_weight >= 0.0 and np.isfinite(lambda_weight)):
        raise ValueError(f"lambda_weight must be finite and >= 0, got {lambda_weight}")
    pred_depths = np.asarray(pred_depths, dtype=np.float64)
    target_depths = np.asarray(target_depths, dtype=np.float64)
    if pred_depths.shape != target_depths.shape:
        raise ValueError(f"depth shapes must agree: pred {pred_depths.shape}, target {target_depths.shape}")
    if not pred_depths.size or lambda_weight == 0.0:
        return 0.0, np.zeros_like(pred_depths)
    valid = ~np.isnan(target_depths)
    residual = np.where(valid, pred_depths - target_depths, 0.0)
    value = lambda_weight * float(gm_loss(residual[valid], alpha).sum())
    return value, np.where(valid, lambda_weight * gm_grad(residual, alpha), 0.0)
