"""Camera model tests: normalization, projection, zoom augmentation.

Projection and normalization are checked against hand-computed values
and against each other (normalized coordinates of a projected point must
equal x/z, y/z).  The batch zoom augmentation is checked for its
defining property: reprojecting the zoomed 3D pose with unchanged
intrinsics reproduces the zoomed 2D points.
"""

import dataclasses
import math

import numpy as np
import pytest

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

CAM = CameraIntrinsics(fx=270.0, fy=265.3, cx=80.7, cy=59.2)


class TestCameraIntrinsics:
    def test_rejects_nonpositive_focal_lengths(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=0.0, fy=100.0, cx=0.0, cy=0.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100.0, fy=-1.0, cx=0.0, cy=0.0)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=math.nan, fy=100.0, cx=0.0, cy=0.0)
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=100.0, fy=100.0, cx=math.inf, cy=0.0)

    def test_dict_round_trip(self):
        assert CameraIntrinsics.from_dict(CAM.to_dict()) == CAM


class TestNormalize2d:
    def test_hand_computed_values(self):
        """((u - cx) / fx, (v - cy) / fy) on a case small enough to do by hand."""
        cam = CameraIntrinsics(fx=2.0, fy=4.0, cx=10.0, cy=20.0)
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


class TestProject:
    def test_hand_computed_values(self):
        cam = CameraIntrinsics(fx=500.0, fy=400.0, cx=80.0, cy=60.0)
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
        width=160,
        height=120,
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
        np.testing.assert_allclose(
            zoomed.joints_2d[0], zoom_points_2d(sample.joints_2d, CAM, 1.3), atol=1e-12
        )
