"""Camera model tests: normalization, projection, zoom augmentation.

Projection and normalization are checked against hand-computed values
and against each other (normalized coordinates of a projected point must
equal x/z, y/z).  A batch's per-row intrinsics must give each row the
bits of its own camera.  The batch zoom augmentation is checked for its
defining property: reprojecting the zoomed 3D pose with unchanged
intrinsics reproduces the zoomed 2D points.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift.data import Sample, SampleBatch
from poselift.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    denormalize_2d,
    normalize_2d,
    project,
    zoom_augment,
    zoom_points_2d,
    zoom_pose_3d,
)

CAM = CameraIntrinsics(fx=270.0, fy=265.3, cx=80.7, cy=59.2, width=160, height=120)


class TestCameraIntrinsics:
    def test_rejects_nonpositive_focal_lengths(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=100.0, cx=0.0, cy=0.0, width=160, height=120)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100.0, fy=-1.0, cx=0.0, cy=0.0, width=160, height=120)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=math.nan, fy=100.0, cx=0.0, cy=0.0, width=160, height=120)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=math.inf, cy=0.0, width=160, height=120)
        with pytest.raises(ValueError, match=r"^fy must be finite, got 1000"):  # an int beyond float range
            CameraIntrinsics(fx=100.0, fy=10**400, cx=0.0, cy=0.0, width=160, height=120)

    @pytest.mark.parametrize("field", ["width", "height"])
    def test_rejects_image_size_below_one(self, field):
        size = {"width": 160, "height": 120, field: 0}
        with pytest.raises(ValueError, match=rf"^{field} must be >= 1, got 0$"):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, **size)

    @pytest.mark.parametrize("field, value", [("width", 4.5), ("height", True), ("width", 160.0)])
    def test_rejects_an_image_size_that_is_not_an_int(self, field, value):
        size = {"width": 160, "height": 120, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be int, got {value!r}$"):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, **size)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", ["a", None])
    def test_rejects_a_value_that_is_not_a_number(self, field, value):
        row = {"fx": 100.0, "fy": 100.0, "cx": 0.0, "cy": 0.0, field: value}
        with pytest.raises(ValueError, match=rf"^{field} must be float, got {value!r}$"):
            CameraIntrinsics(**row, width=160, height=120)

    def test_array_is_the_intrinsics_row(self):
        assert CAM.row == (CAM.fx, CAM.fy, CAM.cx, CAM.cy)
        row = np.asarray(CAM)
        assert row.dtype == np.float64
        assert row.tolist() == [CAM.fx, CAM.fy, CAM.cx, CAM.cy]
        assert np.array([CAM, CAM], dtype=np.float64).shape == (2, 4)


@st.composite
def per_row_cases(draw):
    """(cameras, 2D points, 3D points, zoom factors), one camera per row."""
    n, j = draw(st.integers(1, 5)), draw(st.integers(1, 17))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cams = [CameraIntrinsics(fx=float(rng.uniform(50, 400)), fy=float(rng.uniform(50, 400)),
                             cx=float(rng.uniform(0, 160)), cy=float(rng.uniform(0, 120)), width=160, height=120)
            for _ in range(n)]
    points_3d = rng.normal(scale=500.0, size=(n, j, 3)) + [0.0, 0.0, 4000.0]
    return cams, rng.uniform(-50.0, 250.0, size=(n, j, 2)), points_3d, rng.uniform(0.5, 2.0, size=n)


class TestPerRowIntrinsics:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(per_row_cases())
    def test_each_row_gets_the_bits_of_its_own_camera(self, case):
        """Intrinsics of shape (N, 1, 4) against (N, J, k) points give row i
        the bytes of the call with row i's CameraIntrinsics."""
        cams, points_2d, points_3d, factors = case
        rows = np.array(cams, dtype=np.float64)[:, None]
        batched = {
            "normalize_2d": normalize_2d(points_2d, rows),
            "denormalize_2d": denormalize_2d(points_2d, rows),
            "project": project(points_3d, rows),
            "zoom_points_2d": zoom_points_2d(points_2d, rows, factors[:, None, None]),
        }
        for i, cam in enumerate(cams):
            single = {
                "normalize_2d": normalize_2d(points_2d[i], cam),
                "denormalize_2d": denormalize_2d(points_2d[i], cam),
                "project": project(points_3d[i], cam),
                "zoom_points_2d": zoom_points_2d(points_2d[i], cam, float(factors[i])),
            }
            for name, value in single.items():
                assert batched[name][i].tobytes() == value.tobytes(), name

    def test_intrinsics_without_four_columns_are_rejected(self):
        with pytest.raises(ValueError, match=r"intrinsics must have shape \(\.\.\., 4\), got \(2, 3\)"):
            normalize_2d(np.zeros((2, 2)), np.ones((2, 3)))


class TestNormalize2d:
    def test_hand_computed_values(self):
        """((u - cx) / fx, (v - cy) / fy) on a case small enough to do by hand."""
        cam = CameraIntrinsics(fx=2.0, fy=4.0, cx=10.0, cy=20.0, width=160, height=120)
        out = normalize_2d(np.array([12.0, 28.0]), cam)
        np.testing.assert_allclose(out, [1.0, 2.0], rtol=0, atol=0)

    def test_principal_point_maps_to_origin(self):
        out = normalize_2d(np.array([CAM.cx, CAM.cy]), CAM)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)

    def test_denormalize_inverts(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            pts = rng.uniform(-200, 500, size=(rng.integers(1, 30), 2))
            back = denormalize_2d(normalize_2d(pts, CAM), CAM)
            np.testing.assert_allclose(back, pts, rtol=0, atol=1e-9)

    def test_rejects_bad_shape_and_non_finite(self):
        with pytest.raises(ValueError):
            normalize_2d(np.zeros((3, 3)), CAM)
        with pytest.raises(ValueError):
            normalize_2d(np.array([np.nan, 1.0]), CAM)
        with pytest.raises(ValueError):
            denormalize_2d(np.array([np.inf, 1.0]), CAM)
        with pytest.raises(ValueError, match="non-finite values in points"):
            zoom_points_2d(np.array([np.nan, 1.0]), CAM, 1.2)
        with pytest.raises(ValueError, match="non-finite values in pose"):
            zoom_pose_3d(np.array([0.0, 0.0, np.inf]), 1.2)


class TestProject:
    def test_hand_computed_values(self):
        cam = CameraIntrinsics(fx=500.0, fy=400.0, cx=80.0, cy=60.0, width=160, height=120)
        out = project(np.array([100.0, -50.0, 1000.0]), cam)
        np.testing.assert_allclose(out, [130.0, 40.0], rtol=0, atol=1e-12)

    def test_point_on_optical_axis_hits_principal_point(self):
        out = project(np.array([[0.0, 0.0, 1234.5]]), CAM)
        np.testing.assert_allclose(out[0], [CAM.cx, CAM.cy], atol=1e-12)

    def test_projection_then_normalization_is_x_over_z(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(scale=500.0, size=(200, 3))
        pts[:, 2] = rng.uniform(500.0, 8000.0, size=200)
        normalized = normalize_2d(project(pts, CAM), CAM)
        expected = pts[:, :2] / pts[:, 2:3]
        np.testing.assert_allclose(normalized, expected, rtol=0, atol=1e-12)

    def test_batched_shapes(self):
        out = project(np.zeros((4, 17, 3)) + [0.0, 0.0, 1000.0], CAM)
        assert out.shape == (4, 17, 2)

    def test_z_zero_or_negative_raises(self):
        with pytest.raises(BehindCameraError):
            project(np.array([0.0, 0.0, 0.0]), CAM)
        with pytest.raises(BehindCameraError):
            project(np.array([[1.0, 1.0, 100.0], [1.0, 1.0, -5.0]]), CAM)

    def test_non_finite_raises(self):
        with pytest.raises(ValueError):
            project(np.array([np.nan, 0.0, 100.0]), CAM)


class TestZoom:
    def test_zoom_points_scales_about_principal_point(self):
        pts = np.array([[CAM.cx + 10.0, CAM.cy - 4.0]])
        out = zoom_points_2d(pts, CAM, 1.5)
        np.testing.assert_allclose(out, [[CAM.cx + 15.0, CAM.cy - 6.0]], atol=1e-12)

    def test_zoom_pose_divides_z_only(self):
        pose = np.array([[10.0, 20.0, 3000.0], [-5.0, 0.0, 1500.0]])
        out = zoom_pose_3d(pose, 1.5)
        np.testing.assert_allclose(out[:, :2], pose[:, :2], rtol=0, atol=0)
        np.testing.assert_allclose(out[:, 2], [2000.0, 1000.0], rtol=0, atol=1e-12)

    def test_zoom_reprojection_exact(self):
        """project(zoom3d(pose, f)) == zoom2d(project(pose), f) for any f."""
        rng = np.random.default_rng(3)
        for _ in range(50):
            pose = rng.normal(scale=400.0, size=(17, 3))
            pose[:, 2] += rng.uniform(1500.0, 7000.0)
            f = rng.uniform(0.5, 2.0)
            via_3d = project(zoom_pose_3d(pose, f), CAM)
            via_2d = zoom_points_2d(project(pose, CAM), CAM, f)
            np.testing.assert_allclose(via_3d, via_2d, rtol=0, atol=1e-6)


def _make_sample(rng) -> Sample:
    pose = rng.normal(scale=300.0, size=(17, 3))
    pose[:, 2] += 3000.0
    readouts = pose[:, 2] - 40.0
    readouts[3] = np.nan
    return Sample(
        frame_id="f0",
        camera=CAM,
        joints_2d=project(pose, CAM),
        joints_3d=pose,
        depth_path="depth/f0.dmap",
        depth_readouts=readouts,
        depth_valid=np.isfinite(readouts),
    )


def _batch(samples) -> SampleBatch:
    return SampleBatch.from_samples(samples, 17)


class TestZoomAugment:
    def test_identity_factor_returns_sample_unchanged(self):
        """Rows with factor 1 come back bit for bit; the others change."""
        rng = np.random.default_rng(0)
        batch = _batch([_make_sample(rng) for _ in range(3)])
        zoomed = zoom_augment(batch, np.array([1.0, 1.2, 1.0]))
        for name in ("joints_2d", "joints_3d", "readouts"):
            before, after = getattr(batch, name), getattr(zoomed, name)
            assert after[[0, 2]].tobytes() == before[[0, 2]].tobytes()
            assert not np.array_equal(after[1], before[1])

    def test_rejects_non_positive_or_non_finite_factor(self):
        batch = _batch([_make_sample(np.random.default_rng(0)) for _ in range(2)])
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="zoom factors"):
                zoom_augment(batch, np.array([1.1, bad]))
        with pytest.raises(ValueError, match="one zoom factor per row"):
            zoom_augment(batch, np.array([1.1]))

    def test_geometry_stays_consistent(self):
        """The zoomed 2D joints are exactly the projection of the zoomed pose."""
        rng = np.random.default_rng(5)
        batch = _batch([_make_sample(rng) for _ in range(20)])
        zoomed = zoom_augment(batch, rng.uniform(1.0, 1.5, size=20))
        for joints_2d, joints_3d in zip(zoomed.joints_2d, zoomed.joints_3d):
            np.testing.assert_allclose(joints_2d, project(joints_3d, CAM), rtol=0, atol=1e-6)

    def test_readouts_scale_like_depths(self):
        batch = _batch([_make_sample(np.random.default_rng(1))])
        zoomed = zoom_augment(batch, np.array([2.0]))
        np.testing.assert_allclose(zoomed.readouts, batch.readouts / 2.0, rtol=0, atol=0)
        assert np.isnan(zoomed.readouts[0, 3])
        # The input batch is untouched.
        assert not np.array_equal(zoomed.readouts[0, :3], batch.readouts[0, :3])

    def test_weak_sample_without_pose(self):
        sample = dataclasses.replace(_make_sample(np.random.default_rng(4)), joints_3d=None)
        zoomed = zoom_augment(_batch([sample]), np.array([1.3]))
        assert zoomed.joints_3d is None
        center = np.array([CAM.cx, CAM.cy])
        assert zoomed.joints_2d[0].tobytes() == (center + 1.3 * (sample.joints_2d - center)).tobytes()
