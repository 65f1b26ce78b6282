"""Depth map tests: bilinear readout semantics and the DMAP file format.

The bilinear interpolation is compared entry by entry against an
independent double-loop implementation, including the invalidity rules
(out-of-range queries, NaN neighbours), and byte for byte against the
earlier vectorized readout, which tested finiteness per coordinate and
per corner.  File round trips must be
bit-exact, and malformed files must raise the right error types with
messages that name the file.
"""

import dataclasses
import re
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift.depth import (
    MAGIC,
    VERSION,
    DepthFormatError,
    DepthMap,
    Readouts,
    load_depth,
    read_depth_at,
    save_depth,
)


def _random_map(rng, width, height, hole_prob=0.1) -> DepthMap:
    values = rng.uniform(500.0, 9000.0, size=(height, width)).astype(np.float32)
    values[rng.random(values.shape) < hole_prob] = np.nan
    return DepthMap(values)


def _write_dmap(path, values, version=VERSION, trailing=b""):
    """A DMAP file written byte by byte, bypassing DepthMap's checks."""
    height, width = values.shape
    header = struct.pack("<4sIII", MAGIC, version, width, height)
    path.write_bytes(header + np.asarray(values, dtype="<f4").tobytes() + trailing)


def _reference_bilinear(depth: DepthMap, x: float, y: float):
    """Straightforward scalar reimplementation of the readout contract."""
    if not (np.isfinite(x) and np.isfinite(y)):
        return np.nan, False
    if x < 0.0 or x > depth.width - 1 or y < 0.0 or y > depth.height - 1:
        return np.nan, False
    x0 = min(int(np.floor(x)), depth.width - 2) if depth.width > 1 else 0
    y0 = min(int(np.floor(y)), depth.height - 2) if depth.height > 1 else 0
    x1 = min(x0 + 1, depth.width - 1)
    y1 = min(y0 + 1, depth.height - 1)
    corners = [depth.values[yy, xx] for yy in (y0, y1) for xx in (x0, x1)]
    if not all(np.isfinite(c) for c in corners):
        return np.nan, False
    wx, wy = x - x0, y - y0
    v = np.float64
    top = v(depth.values[y0, x0]) * (1 - wx) + v(depth.values[y0, x1]) * wx
    bot = v(depth.values[y1, x0]) * (1 - wx) + v(depth.values[y1, x1]) * wx
    return top * (1 - wy) + bot * wy, True


def ref_read_depth_at(depth: DepthMap, points: np.ndarray) -> Readouts:
    """The earlier readout: a finiteness test per coordinate and per
    corner, and a clip after the ``np.where``."""
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
    return Readouts(out, valid)


def _coordinate(top: int):
    """A coordinate on a grid axis 0..top: on a grid line (the edges and
    one past them included), just inside or outside an edge, anywhere
    between, or not finite."""
    return st.one_of(
        st.integers(-1, top + 1).map(float),
        st.sampled_from([-0.0, np.nextafter(0.0, -1.0), np.nextafter(float(top), np.inf),
                         np.nextafter(float(top), -np.inf), np.nan, np.inf, -np.inf]),
        st.floats(-2.0, top + 2.0, allow_nan=False),
    )


@st.composite
def readout_cases(draw):
    """A map 1-9 pixels a side, with no holes, some or all holes (quiet
    NaNs of either sign and random payloads), and 1-12 query points, or
    one point as a 1-D array."""
    width, height = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(1.0, 9000.0, size=(height, width)).astype(np.float32)
    holes = rng.random(values.shape) < draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
    bits = rng.integers(0, 2**22, size=values.shape, dtype=np.uint32) | np.uint32(0x7FC00000)
    bits[rng.random(values.shape) < 0.5] |= np.uint32(0x80000000)
    values.view(np.uint32)[holes] = bits[holes]
    n = draw(st.integers(1, 12))
    points = np.array([[draw(_coordinate(width - 1)), draw(_coordinate(height - 1))] for _ in range(n)])
    return DepthMap(values), points[0] if draw(st.booleans()) else points


class TestDepthMapValidation:
    def test_rejects_non_positive_valid_values(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, 2.0], [0.0, 4.0]]))
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, 2.0], [-3.0, 4.0]]))
        with pytest.raises(ValueError):  # -0.0 <= 0, and NaN beside it hides nothing
            DepthMap(np.array([[np.nan, 2.0], [-0.0, np.nan]]))

    def test_rejects_infinities(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[1.0, np.inf], [3.0, 4.0]]))
        with pytest.raises(ValueError):
            DepthMap(np.array([[np.nan, -np.inf], [3.0, np.nan]]))

    def test_rejects_wrong_size(self):
        """A grid that is not 2-D, or is empty, is no map."""
        for shape in [(6,), (1, 2, 3), (0, 3), (3, 0), ()]:
            with pytest.raises(ValueError, match=re.escape(f"non-empty 2-D grid, got shape {shape}")):
                DepthMap(np.ones(shape))

    def test_width_and_height_follow_the_shape(self):
        dm = DepthMap(np.arange(1, 7, dtype=np.float32).reshape(2, 3))
        assert (dm.width, dm.height) == (3, 2)
        other = DepthMap(np.ones((5, 4), dtype=np.float32))
        assert (other.width, other.height) == (4, 5)
        with pytest.raises(AttributeError):
            dm.width = 7

    def test_values_cannot_be_reassigned(self):
        """The readout relies on the checks, so a map cannot take an
        unchecked grid after them (inf here would read as a valid inf)."""
        dm = DepthMap(np.full((2, 2), 700.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            dm.values = np.array([[np.inf, 700.0], [700.0, 700.0]], dtype=np.float32)
        assert (dm.values == 700.0).all()

    def test_values_are_read_only(self):
        dm = DepthMap(np.full((2, 2), 700.0))
        with pytest.raises(ValueError, match="read-only"):
            dm.values[0, 0] = np.inf
        values, valid = read_depth_at(dm, [0.5, 0.5])
        assert values.tolist() == [700.0] and valid.tolist() == [True]

    @pytest.mark.parametrize("make", [
        lambda: np.full((3, 4), 700.0, dtype=np.float32),
        lambda: np.full((3, 8), 700.0, dtype=np.float32)[:, ::2],
    ], ids=["array", "view"])
    def test_a_callers_writable_array_stays_its_own(self, make):
        """The map copies a float32 array it would otherwise share: the
        caller's array stays writable, and writing into it leaves the map
        as it was checked."""
        grid = make()
        dm = DepthMap(grid)
        assert grid.flags.writeable and not np.shares_memory(dm.values, grid)
        grid[0, 0] = -5.0
        assert dm.values[0, 0] == 700.0

    def test_a_read_only_or_converted_array_is_not_copied_again(self):
        frozen = np.full((3, 4), 700.0, dtype=np.float32)
        frozen.flags.writeable = False
        assert DepthMap(frozen).values is frozen
        grid = np.full((3, 4), 700.0)  # float64: the map's float32 array is its own
        dm = DepthMap(grid)
        assert dm.values.dtype == np.float32 and not dm.values.flags.writeable and grid.flags.writeable

    def test_all_nan_map_is_allowed(self):
        """A frame where the sensor returned nothing is still a valid map."""
        dm = DepthMap(np.full((3, 4), np.nan))
        assert np.isnan(dm.values).all()


class TestBilinearReadout:
    def test_two_by_two_hand_case(self):
        """Centre of a 2x2 grid [[1,2],[3,4]] reads the mean, 2.5."""
        dm = DepthMap(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        out = read_depth_at(dm, np.array([[0.5, 0.5], [0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [2.5, 1.0, 4.0, 2.0], rtol=0, atol=0)
        assert out.valid.all()

    def test_grid_points_read_exact_pixel_values(self):
        rng = np.random.default_rng(0)
        dm = _random_map(rng, 8, 6, hole_prob=0.0)
        xs, ys = np.meshgrid(np.arange(8.0), np.arange(6.0))
        pts = np.stack([xs.ravel(), ys.ravel()], axis=1)
        out = read_depth_at(dm, pts)
        np.testing.assert_allclose(
            out.values.reshape(6, 8), dm.values.astype(np.float64), rtol=0, atol=0
        )

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            dm = _random_map(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)))
            pts = np.stack(
                [
                    rng.uniform(-2.0, dm.width + 1.0, size=60),
                    rng.uniform(-2.0, dm.height + 1.0, size=60),
                ],
                axis=1,
            )
            out = read_depth_at(dm, pts)
            for k, (x, y) in enumerate(pts):
                ref_value, ref_valid = _reference_bilinear(dm, x, y)
                assert out.valid[k] == ref_valid, (x, y)
                if ref_valid:
                    assert abs(out.values[k] - ref_value) < 1e-9
                else:
                    assert np.isnan(out.values[k])

    def test_matches_casting_the_whole_map_bit_for_bit(self):
        """Gathering float32 corners and casting them reads the bits of a
        map cast to float64 first, NaN pattern included."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            dm = _random_map(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)), hole_prob=0.2)
            w, h = dm.width - 1.0, dm.height - 1.0
            edges = [[0.0, 0.0], [w, h], [w, 0.0], [0.0, h], [w / 2, h], [w, h / 2], [-1e-9, 0.0],
                     [w + 1e-9, h], [np.nan, 1.0], [1.0, np.inf], [-3.0, 2.0 * h + 1]]
            pts = np.concatenate([rng.uniform([-2.0, -2.0], [w + 2.0, h + 2.0], size=(60, 2)), edges])
            cast = SimpleNamespace(width=dm.width, height=dm.height, values=dm.values.astype(np.float64))
            out, ref = read_depth_at(dm, pts), read_depth_at(cast, pts)
            assert out.values.dtype == np.float64
            assert out.values.tobytes() == ref.values.tobytes()
            np.testing.assert_array_equal(out.valid, ref.valid)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(readout_cases())
    def test_matches_the_earlier_readout_byte_for_byte(self, case):
        depth, points = case
        out, ref = read_depth_at(depth, points), ref_read_depth_at(depth, points)
        assert out.values.dtype == ref.values.dtype == np.float64
        assert out.values.shape == ref.values.shape
        assert out.values.tobytes() == ref.values.tobytes()
        assert out.valid.dtype == bool and out.valid.tobytes() == ref.valid.tobytes()

    def test_edge_of_image_is_inside(self):
        dm = DepthMap(np.full((3, 3), 1000.0, dtype=np.float32))
        out = read_depth_at(dm, np.array([[2.0, 2.0], [0.0, 2.0], [2.0, 0.0]]))
        assert out.valid.all()
        out = read_depth_at(dm, np.array([[2.0001, 2.0], [-0.0001, 0.0]]))
        assert not out.valid.any()

    def test_nan_neighbour_invalidates_without_mixing(self):
        values = np.full((3, 3), 1000.0, dtype=np.float32)
        values[0, 0] = np.nan
        dm = DepthMap(values)
        out = read_depth_at(dm, np.array([[0.5, 0.5], [1.5, 1.5], [2.0, 2.0]]))
        assert list(out.valid) == [False, True, True]
        assert np.isnan(out.values[0])
        np.testing.assert_allclose(out.values[1:], 1000.0, rtol=0, atol=0)

    def test_single_point_and_shape_checks(self):
        dm = DepthMap(np.full((2, 2), 700.0, dtype=np.float32))
        out = read_depth_at(dm, np.array([1.0, 1.0]))
        assert out.values.shape == (1,)
        with pytest.raises(ValueError):
            read_depth_at(dm, np.zeros((4, 3)))

    def test_non_finite_query_is_invalid(self):
        dm = DepthMap(np.full((2, 2), 700.0, dtype=np.float32))
        out = read_depth_at(dm, np.array([[np.nan, 0.5], [0.5, np.inf]]))
        assert not out.valid.any()

    def test_readout_unpacks_to_values_and_valid(self):
        dm = DepthMap(np.array([[1.0, 2.0, np.nan], [3.0, 4.0, np.nan]], dtype=np.float32))
        values, valid = read_depth_at(dm, np.array([[0.0, 0.0], [1.5, 0.5]]))
        assert values.dtype == np.float64 and valid.dtype == bool
        assert values[0] == 1.0 and np.isnan(values[1])
        assert list(valid) == [True, False]


class TestDmapFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        dm = _random_map(rng, 17, 11)
        path = tmp_path / "a.dmap"
        save_depth(path, dm)
        back = load_depth(path)
        assert (back.width, back.height) == (17, 11)
        assert back.values.tobytes() == dm.values.tobytes()
        assert not back.values.flags.writeable

    def test_nan_payloads_survive(self, tmp_path):
        """NaNs are stored verbatim, whatever their payload bits."""
        values = np.full((2, 2), 1000.0, dtype=np.float32)
        values_bits = values.view(np.uint32)
        values_bits[0, 1] = 0x7FC00ABC  # a quiet NaN with a nonzero payload
        values_bits[1, 0] = 0x7FC00000
        path = tmp_path / "nan.dmap"
        save_depth(path, DepthMap(values))
        back = load_depth(path)
        assert back.values.tobytes() == values.tobytes()

    def test_truncated_header_raises_format_error(self, tmp_path):
        path = tmp_path / "short.dmap"
        path.write_bytes(b"DMA")
        with pytest.raises(DepthFormatError, match=rf"^{re.escape(str(path))}: truncated header of 3 bytes, expected 16$"):
            load_depth(path)

    def test_truncated_payload_raises_format_error(self, tmp_path):
        path = tmp_path / "cut.dmap"
        save_depth(path, DepthMap(np.full((4, 4), 1.0, dtype=np.float32)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(DepthFormatError,
                           match=rf"^{re.escape(str(path))}: the 4x4 payload needs 64 bytes, the file has 59$"):
            load_depth(path)

    @pytest.mark.parametrize("byte, width", [(0, 5), (3, 4 + 2**24)])
    def test_raised_width_byte_gives_both_payload_sizes(self, tmp_path, byte, width):
        """The low or the high byte of the width raised by one leaves the
        file shorter than its header says."""
        path = tmp_path / "wide.dmap"
        save_depth(path, DepthMap(np.full((3, 4), 1000.0, dtype=np.float32)))
        data = bytearray(path.read_bytes())
        data[8 + byte] += 1  # the little-endian width is bytes 8 to 11
        path.write_bytes(bytes(data))
        with pytest.raises(DepthFormatError, match=rf"^{re.escape(str(path))}: the {width}x3 payload needs "
                                                   rf"{4 * width * 3} bytes, the file has 48$"):
            load_depth(path)

    def test_bad_magic_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.dmap"
        path.write_bytes(struct.pack("<4sIII", b"JUNK", VERSION, 1, 1) + b"\x00" * 4)
        with pytest.raises(DepthFormatError):
            load_depth(path)

    def test_bad_version_raises_format_error(self, tmp_path):
        path = tmp_path / "v9.dmap"
        path.write_bytes(struct.pack("<4sIII", MAGIC, 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(DepthFormatError):
            load_depth(path)

    def test_zero_shape_raises_format_error(self, tmp_path):
        path = tmp_path / "zero.dmap"
        path.write_bytes(struct.pack("<4sIII", MAGIC, VERSION, 0, 5))
        with pytest.raises(DepthFormatError):
            load_depth(path)

    def test_bad_version_names_the_file(self, tmp_path):
        path = tmp_path / "v2.dmap"
        _write_dmap(path, np.full((2, 3), 1000.0), version=2)
        with pytest.raises(DepthFormatError, match=rf"^{re.escape(str(path))}: unsupported depth format version 2$"):
            load_depth(path)

    def test_infinite_value_names_the_file(self, tmp_path):
        path = tmp_path / "inf.dmap"
        values = np.full((2, 3), 1000.0)
        values[1, 2] = np.inf
        _write_dmap(path, values)
        with pytest.raises(DepthFormatError, match=rf"^{re.escape(str(path))}: depth values must be finite or NaN$"):
            load_depth(path)

    def test_non_positive_value_names_the_file(self, tmp_path):
        path = tmp_path / "zero.dmap"
        values = np.full((2, 3), 1000.0)
        values[0, 1] = 0.0
        _write_dmap(path, values)
        with pytest.raises(DepthFormatError, match=rf"^{re.escape(str(path))}: valid depth values must be positive$"):
            load_depth(path)

    def test_bytes_after_the_payload_name_the_file(self, tmp_path):
        """A 4x4 map stored under a 3x4 header leaves 16 bytes over."""
        path = tmp_path / "long.dmap"
        save_depth(path, DepthMap(np.full((4, 4), 1000.0, dtype=np.float32)))
        data = bytearray(path.read_bytes())
        data[12:16] = struct.pack("<I", 3)  # height
        path.write_bytes(bytes(data))
        with pytest.raises(DepthFormatError, match=rf"^{re.escape(str(path))}: 16 bytes after the 4x3 payload$"):
            load_depth(path)
