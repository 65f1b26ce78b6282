"""Pinhole camera model: 2D normalization, projection, zoom augmentation.

All 2D quantities are pixels, all 3D quantities are millimeters in the
camera frame (x right, y down, z along the optical axis).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .data import SampleBatch


class BehindCameraError(ValueError):
    """Raised when a point with z <= 0 is pushed through the projection."""


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole calibration: focal lengths and principal point, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(fx=float(d["fx"]), fy=float(d["fy"]), cx=float(d["cx"]), cy=float(d["cy"]))


def _as_points(points: np.ndarray, last_dim: int, what: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != last_dim:
        raise ValueError(f"{what} must have shape (..., {last_dim}), got {arr.shape}")
    return arr


def normalize_2d(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Map pixel coordinates to calibration-free image coordinates.

    Returns ((x - cx) / fx, (y - cy) / fy), the tangent of the viewing
    angle, so that poses seen through different cameras become comparable.
    """
    arr = _as_points(points, 2, "points")
    if not np.isfinite(arr).all():
        raise ValueError("points contain non-finite values")
    return (arr - np.array([cam.cx, cam.cy])) / np.array([cam.fx, cam.fy])


def denormalize_2d(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Inverse of :func:`normalize_2d`: normalized coordinates back to pixels."""
    arr = _as_points(points, 2, "points")
    if not np.isfinite(arr).all():
        raise ValueError("points contain non-finite values")
    return arr * np.array([cam.fx, cam.fy]) + np.array([cam.cx, cam.cy])


def project(points: np.ndarray, cam: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame 3D points (mm) to pixel coordinates.

    u = fx * x / z + cx, v = fy * y / z + cy.  Every point must lie in
    front of the camera; z <= 0 raises :class:`BehindCameraError`.
    """
    arr = _as_points(points, 3, "points")
    if not np.isfinite(arr).all():
        raise ValueError("points contain non-finite values")
    z = arr[..., 2]
    if np.any(z <= 0.0):
        raise BehindCameraError(f"cannot project points with z <= 0 (min z = {z.min()})")
    u = cam.fx * arr[..., 0] / z + cam.cx
    v = cam.fy * arr[..., 1] / z + cam.cy
    return np.stack([u, v], axis=-1)


def zoom_points_2d(points: np.ndarray, cam: CameraIntrinsics, factor: float) -> np.ndarray:
    """Scale pixel coordinates about the principal point by ``factor``."""
    arr = _as_points(points, 2, "points")
    center = np.array([cam.cx, cam.cy])
    return center + factor * (arr - center)


def zoom_pose_3d(pose: np.ndarray, factor: float) -> np.ndarray:
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
    (factor < 1) the camera.  Each element gets the arithmetic of
    :func:`zoom_points_2d` and :func:`zoom_pose_3d`; rows with factor 1.0
    come back unchanged, bit for bit.  The input batch is not modified.
    """
    f = np.asarray(factors, dtype=np.float64)
    if f.shape != (len(batch),):
        raise ValueError(f"need one zoom factor per row ({len(batch)}), got shape {f.shape}")
    bad = ~(np.isfinite(f) & (f > 0.0))
    if bad.any():
        raise ValueError(f"zoom factors must be finite and > 0, got {f[bad][0]!r}")
    rows = np.flatnonzero(f != 1.0)
    scale = f[rows, None]
    center = batch.intrinsics[rows, None, 2:]
    joints_2d = batch.joints_2d.copy()
    joints_2d[rows] = center + scale[..., None] * (joints_2d[rows] - center)
    readouts = batch.readouts.copy()
    readouts[rows] /= scale
    joints_3d = batch.joints_3d
    if joints_3d is not None:
        joints_3d = joints_3d.copy()
        joints_3d[rows, :, 2] /= scale
    return dataclasses.replace(batch, joints_2d=joints_2d, joints_3d=joints_3d, readouts=readouts)
