"""Pinhole camera model: 2D normalization, projection, zoom augmentation.

All 2D quantities are pixels, all 3D quantities are millimeters in the
camera frame (x right, y down, z along the optical axis).

Intrinsics are rows ``[fx, fy, cx, cy]`` (``np.asarray(cam)`` of a
:class:`CameraIntrinsics`) of shape ``(..., 4)`` that broadcast against
the points: one camera serves a pose, a batch's ``(N, 1, 4)`` rows its
``(N, J, 2)`` joints, with the same arithmetic element by element.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .data import SampleBatch


class BehindCameraError(ValueError):
    """Raised when a point with z <= 0 is pushed through the projection."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole calibration: focal lengths and principal point, in pixels,
    and the image size in pixels, in the order of a pose file's camera."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        for name, value in zip(("fx", "fy", "cx", "cy"), self.row):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                finite = False
            except TypeError:
                raise ValueError(f"{name} must be a real number, got {value!r}") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        for name in ("width", "height"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"camera {name} must be int, got {value!r}")
            if value < 1:
                raise ValueError(f"camera {name} must be >= 1, got {value!r}")

    @property
    def row(self) -> tuple[float, float, float, float]:
        """The intrinsics row (fx, fy, cx, cy); ``np.asarray(cam)`` is its array."""
        return (self.fx, self.fy, self.cx, self.cy)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.array(self.row, dtype=dtype)


def _as_points(points: np.ndarray, last_dim: int, what: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != last_dim:
        raise ValueError(f"{what} must have shape (..., {last_dim}), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite values in {what}")
    return arr


def normalize_2d(points: np.ndarray, cam: CameraIntrinsics | np.ndarray) -> np.ndarray:
    """Map pixel coordinates to calibration-free image coordinates.

    Returns ((x - cx) / fx, (y - cy) / fy), the tangent of the viewing
    angle, so that poses seen through different cameras become comparable.
    """
    arr, k = _as_points(points, 2, "points"), _as_points(cam, 4, "intrinsics")
    return (arr - k[..., 2:]) / k[..., :2]


def denormalize_2d(points: np.ndarray, cam: CameraIntrinsics | np.ndarray) -> np.ndarray:
    """Inverse of :func:`normalize_2d`: normalized coordinates back to pixels."""
    arr, k = _as_points(points, 2, "points"), _as_points(cam, 4, "intrinsics")
    return arr * k[..., :2] + k[..., 2:]


def project(points: np.ndarray, cam: CameraIntrinsics | np.ndarray) -> np.ndarray:
    """Project camera-frame 3D points (mm) to pixel coordinates.

    u = fx * x / z + cx, v = fy * y / z + cy.  Every point must lie in
    front of the camera; z <= 0 raises :class:`BehindCameraError`.
    """
    arr, k = _as_points(points, 3, "points"), _as_points(cam, 4, "intrinsics")
    z = arr[..., 2]
    if np.any(z <= 0.0):
        raise BehindCameraError(f"cannot project points with z <= 0 (min z = {z.min()})")
    u = k[..., 0] * arr[..., 0] / z + k[..., 2]
    v = k[..., 1] * arr[..., 1] / z + k[..., 3]
    return np.stack([u, v], axis=-1)


def zoom_points_2d(points: np.ndarray, cam: CameraIntrinsics | np.ndarray, factor: float | np.ndarray) -> np.ndarray:
    """Scale pixel coordinates about the principal point by ``factor``."""
    arr, center = _as_points(points, 2, "points"), _as_points(cam, 4, "intrinsics")[..., 2:]
    return center + factor * (arr - center)


def zoom_pose_3d(pose: np.ndarray, factor: float | np.ndarray) -> np.ndarray:
    """Divide the z coordinates of a 3D pose by ``factor``.

    With x and y unchanged this is the unique map for which projection
    with unchanged intrinsics reproduces the zoomed 2D joints exactly:
    fx * x / (z / factor) + cx = cx + factor * (u - cx).
    """
    arr = _as_points(pose, 3, "pose")
    out = arr.copy()
    out[..., 2] /= factor
    return out


def zoom_augment(batch: "SampleBatch", factors: np.ndarray) -> "SampleBatch":
    """Apply a synthetic camera zoom to each row of a batch, intrinsics unchanged.

    Row i's 2D joints are scaled about its principal point by
    ``factors[i]``; its 3D pose z coordinates and depth readouts are
    divided by ``factors[i]``, which keeps reprojection exact and amounts
    to moving the person closer to (factor > 1) or further from
    (factor < 1) the camera.  The rows whose factor is not 1.0 go through
    :func:`zoom_points_2d` and :func:`zoom_pose_3d`; the others come back
    unchanged, bit for bit.  The input batch is not modified.
    """
    f = np.asarray(factors, dtype=np.float64)
    if f.shape != (len(batch),):
        raise ValueError(f"need one zoom factor per row ({len(batch)}), got shape {f.shape}")
    bad = ~(np.isfinite(f) & (f > 0.0))
    if bad.any():
        raise ValueError(f"zoom factors must be finite and > 0, got {f[bad][0]!r}")
    rows = np.flatnonzero(f != 1.0)
    scale = f[rows, None]
    joints_2d = batch.joints_2d.copy()
    joints_2d[rows] = zoom_points_2d(joints_2d[rows], batch.intrinsics[rows, None], scale[..., None])
    readouts = batch.readouts.copy()
    readouts[rows] /= scale
    joints_3d = None if batch.joints_3d is None else batch.joints_3d.copy()
    if joints_3d is not None:
        joints_3d[rows] = zoom_pose_3d(joints_3d[rows], scale)
    return dataclasses.replace(batch, joints_2d=joints_2d, joints_3d=joints_3d, readouts=readouts)
