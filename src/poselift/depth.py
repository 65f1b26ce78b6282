"""Dense depth maps: bilinear readout and the DMAP file format.

A depth map stores one float32 z-depth in millimeters per pixel; NaN
marks pixels without a sensor return.  The file layout is:

    magic  4 bytes  b"DMAP"
    version u32     1
    width   u32
    height  u32
    values  width * height float32, row-major

All integers and floats are little-endian, and nothing follows the
values.  Values round trip bit-exact, including NaN payloads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .files import rewrite

MAGIC = b"DMAP"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


class DepthFormatError(ValueError):
    """Raised for a malformed DMAP file: its magic, version, shape, length
    or values."""


@dataclass(frozen=True)
class DepthMap:
    """A height x width grid of z-depths in mm, NaN where invalid; its
    size is the shape of ``values``.

    The map is frozen and ``values`` is a read-only float32 array, so the
    checks made here hold for as long as the map lives.  A writable
    float32 array of the caller's is copied, never frozen in place; a
    read-only float32 array is taken as it is."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError(f"depth values must be a non-empty 2-D grid, got shape {vals.shape}")
        if np.any(np.isinf(vals)):
            raise ValueError("depth values must be finite or NaN")
        if (vals <= 0.0).any():  # NaN compares false
            raise ValueError("valid depth values must be positive")
        if vals.flags.writeable and (vals is self.values or not vals.flags.owndata):
            vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


class Readouts(NamedTuple):
    """Depth readouts (mm, NaN where invalid) and their validity mask."""

    values: np.ndarray
    valid: np.ndarray


def read_depth_at(depth: DepthMap, points: np.ndarray) -> Readouts:
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

    # NaN and +-inf fail these comparisons, so they need no test of their own.
    inside = (x >= 0.0) & (x <= depth.width - 1) & (y >= 0.0) & (y <= depth.height - 1)
    xc = np.where(inside, x, 0.0)
    yc = np.where(inside, y, 0.0)

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

    top = q00 * (1.0 - wx) + q01 * wx
    bottom = q10 * (1.0 - wx) + q11 * wx
    out = top * (1.0 - wy) + bottom * wy
    # A map holds no inf, and a NaN corner makes the sum NaN even at weight 0.
    valid = inside & ~np.isnan(out)
    out = np.where(valid, out, np.nan)
    return Readouts(out, valid)


def save_depth(path: str | Path, depth: DepthMap) -> None:
    """Write a depth map in DMAP format.  An existing file is rewritten in
    place, never truncated first (:func:`poselift.files.rewrite`)."""
    payload = np.ascontiguousarray(depth.values, dtype="<f4").tobytes()
    with rewrite(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, depth.width, depth.height))
        fh.write(payload)


def load_depth(path: str | Path) -> DepthMap:
    """Read a DMAP file; bit-exact inverse of :func:`save_depth`.

    Every rejection is a DepthFormatError naming the file: a short
    header, a bad magic, version or shape, a payload shorter or longer
    than the header's width x height (a truncated file, or a wrong width
    or height), or values a DepthMap refuses.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DepthFormatError(f"{path}: truncated header of {len(header)} bytes, expected {_HEADER.size}")
        magic, version, width, height = _HEADER.unpack(header)
        if magic != MAGIC:
            raise DepthFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise DepthFormatError(f"{path}: unsupported depth format version {version}")
        if width == 0 or height == 0:
            raise DepthFormatError(f"{path}: bad shape {width}x{height}")
        # Sized before it is read, so a corrupt width or height never
        # asks for a buffer of its size.
        need, have = 4 * width * height, fh.seek(0, 2) - _HEADER.size
        if have < need:
            raise DepthFormatError(f"{path}: the {width}x{height} payload needs {need} bytes, the file has {have}")
        if have > need:
            raise DepthFormatError(f"{path}: {have - need} bytes after the {width}x{height} payload")
        fh.seek(_HEADER.size)
        payload = fh.read(need)
    # Read-only over the immutable payload, so the map takes it uncopied.
    values = np.frombuffer(payload, dtype="<f4").reshape(height, width)
    try:
        return DepthMap(values)
    except ValueError as err:
        raise DepthFormatError(f"{path}: {err}") from err
