"""Dense depth maps: bilinear readout and the DMAP file format.

A depth map stores one float32 z-depth in millimeters per pixel; NaN
marks pixels without a sensor return.  The file layout is:

    magic  4 bytes  b"DMAP"
    version u32     1
    width   u32
    height  u32
    values  width * height float32, row-major

All integers and floats are little-endian.  Values round trip bit-exact,
including NaN payloads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"DMAP"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


class DepthFormatError(ValueError):
    """Raised for a malformed DMAP header (magic, version or shape)."""


@dataclass
class DepthMap:
    """A width x height grid of z-depths in mm, NaN where invalid."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"depth map shape must be positive, got {self.width}x{self.height}")
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.shape != (self.height, self.width):
            if vals.size != self.width * self.height:
                raise ValueError(
                    f"expected {self.width * self.height} values, got {vals.size}"
                )
            vals = vals.reshape(self.height, self.width)
        finite = vals[np.isfinite(vals)]
        if np.any(np.isinf(vals)):
            raise ValueError("depth values must be finite or NaN")
        if finite.size and finite.min() <= 0.0:
            raise ValueError("valid depth values must be positive")
        self.values = vals


@dataclass
class JointDepthVector:
    """Per-joint depth readouts (mm) plus a validity mask."""

    values: np.ndarray
    valid: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.valid is None:
            self.valid = np.isfinite(self.values)
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.valid.shape != self.values.shape:
            raise ValueError("values and valid must have the same shape")


def read_depth_at(depth: DepthMap, points: np.ndarray) -> JointDepthVector:
    """Bilinearly interpolate the map at continuous pixel coordinates.

    Pixel (i, j) holds the depth of the ray through pixel coordinates
    exactly (i, j).  A readout is invalid when the query point falls
    outside [0, width-1] x [0, height-1] or any of its four neighbouring
    pixels is NaN; interpolation never mixes valid and invalid pixels.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != 2:
        raise ValueError(f"points must have shape (..., 2), got {pts.shape}")
    x = pts[..., 0]
    y = pts[..., 1]

    inside = (
        np.isfinite(x)
        & np.isfinite(y)
        & (x >= 0.0)
        & (x <= depth.width - 1)
        & (y >= 0.0)
        & (y <= depth.height - 1)
    )
    xc = np.clip(np.where(inside, x, 0.0), 0, depth.width - 1)
    yc = np.clip(np.where(inside, y, 0.0), 0, depth.height - 1)

    x0 = np.minimum(np.floor(xc), depth.width - 2 if depth.width > 1 else 0).astype(int)
    y0 = np.minimum(np.floor(yc), depth.height - 2 if depth.height > 1 else 0).astype(int)
    x1 = np.minimum(x0 + 1, depth.width - 1)
    y1 = np.minimum(y0 + 1, depth.height - 1)
    wx = xc - x0
    wy = yc - y0

    # Gather the corners first: the float32 -> float64 cast is exact, so
    # casting four values per point gives the bits of casting the map.
    v = depth.values
    q00 = v[y0, x0].astype(np.float64)
    q01 = v[y0, x1].astype(np.float64)
    q10 = v[y1, x0].astype(np.float64)
    q11 = v[y1, x1].astype(np.float64)

    valid = inside & np.isfinite(q00) & np.isfinite(q01) & np.isfinite(q10) & np.isfinite(q11)
    top = q00 * (1.0 - wx) + q01 * wx
    bottom = q10 * (1.0 - wx) + q11 * wx
    out = top * (1.0 - wy) + bottom * wy
    out = np.where(valid, out, np.nan)
    return JointDepthVector(values=out, valid=valid)


def save_depth(path: str | Path, depth: DepthMap) -> None:
    """Write a depth map in DMAP format."""
    payload = np.ascontiguousarray(depth.values, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, depth.width, depth.height))
        fh.write(payload)


def load_depth(path: str | Path) -> DepthMap:
    """Read a DMAP file; bit-exact inverse of :func:`save_depth`."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise OSError(f"truncated depth file header: {path}")
        magic, version, width, height = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DepthFormatError(f"bad magic {magic!r} in {path}")
        if version != VERSION:
            raise DepthFormatError(f"unsupported depth format version {version}")
        if width == 0 or height == 0:
            raise DepthFormatError(f"bad shape {width}x{height} in {path}")
        payload = fh.read(4 * width * height)
        if len(payload) < 4 * width * height:
            raise OSError(f"truncated depth payload in {path}")
    values = np.frombuffer(payload, dtype="<f4").reshape(height, width).copy()
    return DepthMap(width=int(width), height=int(height), values=values)
