"""Depth map tests: bilinear readout semantics and the DMAP file format.

The bilinear interpolation is compared entry by entry against an
independent double-loop implementation, including the invalidity rules
(out-of-range queries, NaN neighbours).  File round trips must be
bit-exact, and malformed files must raise the right error types.
"""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from poselift.depth import (
    MAGIC,
    VERSION,
    DepthFormatError,
    DepthMap,
    JointDepthVector,
    load_depth,
    read_depth_at,
    save_depth,
)


def _random_map(rng, width, height, hole_prob=0.1) -> DepthMap:
    values = rng.uniform(500.0, 9000.0, size=(height, width)).astype(np.float32)
    values[rng.random(values.shape) < hole_prob] = np.nan
    return DepthMap(width, height, values)


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


class TestDepthMapValidation:
    def test_rejects_non_positive_valid_values(self):
        with pytest.raises(ValueError):
            DepthMap(2, 2, np.array([[1.0, 2.0], [0.0, 4.0]]))
        with pytest.raises(ValueError):
            DepthMap(2, 2, np.array([[1.0, 2.0], [-3.0, 4.0]]))

    def test_rejects_infinities(self):
        with pytest.raises(ValueError):
            DepthMap(2, 2, np.array([[1.0, np.inf], [3.0, 4.0]]))

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            DepthMap(3, 2, np.ones((2, 2)))

    def test_accepts_flat_values_and_reshapes(self):
        dm = DepthMap(3, 2, np.arange(1, 7, dtype=np.float32))
        assert dm.values.shape == (2, 3)
        assert dm.values[1, 2] == 6.0

    def test_all_nan_map_is_allowed(self):
        """A frame where the sensor returned nothing is still a valid map."""
        dm = DepthMap(4, 3, np.full((3, 4), np.nan))
        assert np.isnan(dm.values).all()


class TestBilinearReadout:
    def test_two_by_two_hand_case(self):
        """Centre of a 2x2 grid [[1,2],[3,4]] reads the mean, 2.5."""
        dm = DepthMap(2, 2, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
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

    def test_edge_of_image_is_inside(self):
        dm = DepthMap(3, 3, np.full((3, 3), 1000.0, dtype=np.float32))
        out = read_depth_at(dm, np.array([[2.0, 2.0], [0.0, 2.0], [2.0, 0.0]]))
        assert out.valid.all()
        out = read_depth_at(dm, np.array([[2.0001, 2.0], [-0.0001, 0.0]]))
        assert not out.valid.any()

    def test_nan_neighbour_invalidates_without_mixing(self):
        values = np.full((3, 3), 1000.0, dtype=np.float32)
        values[0, 0] = np.nan
        dm = DepthMap(3, 3, values)
        out = read_depth_at(dm, np.array([[0.5, 0.5], [1.5, 1.5], [2.0, 2.0]]))
        assert list(out.valid) == [False, True, True]
        assert np.isnan(out.values[0])
        np.testing.assert_allclose(out.values[1:], 1000.0, rtol=0, atol=0)

    def test_single_point_and_shape_checks(self):
        dm = DepthMap(2, 2, np.full((2, 2), 700.0, dtype=np.float32))
        out = read_depth_at(dm, np.array([1.0, 1.0]))
        assert out.values.shape == (1,)
        with pytest.raises(ValueError):
            read_depth_at(dm, np.zeros((4, 3)))

    def test_non_finite_query_is_invalid(self):
        dm = DepthMap(2, 2, np.full((2, 2), 700.0, dtype=np.float32))
        out = read_depth_at(dm, np.array([[np.nan, 0.5], [0.5, np.inf]]))
        assert not out.valid.any()


class TestJointDepthVector:
    def test_valid_mask_defaults_to_finiteness(self):
        v = JointDepthVector(values=np.array([1.0, np.nan, 3.0]))
        assert list(v.valid) == [True, False, True]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            JointDepthVector(values=np.zeros(3), valid=np.zeros(2, dtype=bool))


class TestDmapFormat:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        dm = _random_map(rng, 17, 11)
        path = tmp_path / "a.dmap"
        save_depth(path, dm)
        back = load_depth(path)
        assert (back.width, back.height) == (17, 11)
        assert back.values.tobytes() == dm.values.tobytes()

    def test_nan_payloads_survive(self, tmp_path):
        """NaNs are stored verbatim, whatever their payload bits."""
        values = np.full((2, 2), 1000.0, dtype=np.float32)
        values_bits = values.view(np.uint32)
        values_bits[0, 1] = 0x7FC00ABC  # a quiet NaN with a nonzero payload
        values_bits[1, 0] = 0x7FC00000
        path = tmp_path / "nan.dmap"
        save_depth(path, DepthMap(2, 2, values))
        back = load_depth(path)
        assert back.values.tobytes() == values.tobytes()

    def test_truncated_header_raises_oserror(self, tmp_path):
        path = tmp_path / "short.dmap"
        path.write_bytes(b"DMA")
        with pytest.raises(OSError):
            load_depth(path)

    def test_truncated_payload_raises_oserror(self, tmp_path):
        path = tmp_path / "cut.dmap"
        save_depth(path, DepthMap(4, 4, np.full((4, 4), 1.0, dtype=np.float32)))
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(OSError):
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
