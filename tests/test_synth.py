"""Synthetic scene generator tests.

The analytic renderer is pinned by closed-form cases: concentric spheres
on the optical axis read (z - max radius) at the principal point, a
fronto-parallel rectangle reads exactly its own z over its footprint,
and an empty scene with no background is all NaN.  Dataset-level checks
cover determinism, anthropometric bone bounds, the visibility flags of
a hand-built occluded scene, and two statistical properties: visible
joints read their own depth to within noise plus interpolation error,
and the occluded fraction grows with the number of occluders.

The renderer solves each primitive only over its pixel window; the
full-frame loop it replaced is kept here as the reference, and a
property test requires the two to agree to the bit.  Dataset digests
pinned from the full-frame renderer guard the criterion-4 and
criterion-5 scene configs end to end.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift.depth import read_depth_at
from poselift.geometry import CameraIntrinsics, project
from poselift.skeleton import default_skeleton, knee_neck_distance
from poselift.synth import (
    _BONE_RADII,
    _SITTING,
    _STANDING,
    Occluder,
    SceneConfig,
    _body_capsules,
    _capsule_depth,
    _occluder_depth,
    _pixel_window,
    _sphere_depth,
    generate_dataset,
    generate_pose,
    generate_scene,
    render_clean_depth,
    render_depth,
    scene_to_samples,
)

SPEC = default_skeleton()
CAM = CameraIntrinsics(fx=260.0, fy=260.0, cx=80.0, cy=60.0)


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _incident_radius(joint: int) -> float:
    """Largest capsule radius touching a joint (own bone or a child's)."""
    radii = []
    for parent, child in SPEC.bones():
        if joint in (parent, child):
            radii.append(_BONE_RADII[SPEC.joint_names[child]])
    return max(radii)


def ref_render_clean_depth(poses, occluders, cam, config, spec):
    """The full-frame renderer: every primitive solved over every pixel."""
    dx = (np.arange(config.image_width, dtype=np.float64) - cam.cx) / cam.fx
    dy = (np.arange(config.image_height, dtype=np.float64) - cam.cy) / cam.fy
    dx = dx[None, :]
    dy = dy[:, None]
    best = np.full((config.image_height, config.image_width), np.inf)
    for pose in poses:
        for a, b, radius in _body_capsules(pose, spec):
            best = np.minimum(best, _capsule_depth(dx, dy, a, b, radius))
    for occ in occluders:
        best = np.minimum(best, _occluder_depth(dx, dy, occ))
    if config.background_depth is not None:
        best = np.minimum(best, config.background_depth)
    return np.where(np.isfinite(best), best, np.nan)


@st.composite
def scenes(draw):
    """(poses, occluders, camera, config) around and beyond the frame.

    Bodies are placed on the ray through a pixel that may lie outside
    the image, at depths from behind the camera to 6 m; a zero joint
    spread makes every capsule degenerate (a == b), and collapsed bones
    make some of them so.  Occluders may sit behind the camera too.
    """
    width, height = draw(st.integers(2, 33)), draw(st.integers(2, 33))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    focal = draw(st.sampled_from([3.0, 40.0, 260.0]))
    cam = CameraIntrinsics(fx=focal * rng.uniform(0.8, 1.2), fy=focal * rng.uniform(0.8, 1.2),
                           cx=rng.uniform(-0.2, 1.2) * width, cy=rng.uniform(-0.2, 1.2) * height)
    poses = []
    for _ in range(draw(st.integers(0, 2))):
        u, v = rng.uniform(-0.5, 1.5) * width, rng.uniform(-0.5, 1.5) * height
        z = rng.uniform(-1000.0, 6000.0)
        pose = [(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z] + rng.normal(
            0.0, draw(st.sampled_from([0.0, 60.0, 400.0])), size=(17, 3))
        collapse = draw(st.sampled_from([0.0, 0.3]))
        for parent, child in SPEC.bones():
            if rng.random() < collapse:
                pose[child] = pose[parent]
        poses.append(pose)
    occluders = [
        Occluder(center=rng.uniform([-2000.0, -2000.0, -500.0], [2000.0, 2000.0, 5000.0]),
                 half_width=rng.uniform(1.0, 800.0), half_height=rng.uniform(1.0, 800.0))
        for _ in range(draw(st.integers(0, 2)))
    ]
    config = SceneConfig(image_width=width, image_height=height,
                         background_depth=draw(st.sampled_from([None, 9000.0])))
    return poses, occluders, cam, config


C4_SCENE = SceneConfig(  # tests/test_acceptance.py, criterion 4
    fx_range=(240.0, 320.0), root_depth_range=(2500.0, 5500.0), persons_range=(1, 3),
    occluder_range=(1, 2), occluder_size_range=(300.0, 600.0), yaw_range_deg=(-60.0, 60.0),
    standing_probability=0.7,
)
C5_SCENE = SceneConfig(  # tests/test_acceptance.py, criterion 5
    fx_range=(240.0, 320.0), root_depth_range=(3000.0, 5500.0), persons_range=(1, 1),
    occluder_range=(1, 2), occluder_size_range=(300.0, 600.0), occluder_depth_fraction=(0.12, 0.35),
    yaw_range_deg=(-30.0, 30.0), standing_probability=1.0, joint_jitter_deg=5.0,
)

# Computed with the full-frame renderer, before culling.
C4_DIGEST = "3698996e26d30d43e805dcf34cab5e4aa2f364dad011f275e92272beb225b778"
C5_DIGEST = "9ca324db7ad6449b8db02eb34754f6bfa98590ee28a655271f1ec00a6e6b628f"


def _dataset_digest(dataset) -> str:
    """sha256 over every sample's frame id, camera, joints, readouts,
    visibility and depth map bytes."""
    h = hashlib.sha256()
    for s in dataset.all_samples():
        cam = s.camera
        h.update(f"{s.frame_id} {cam.fx!r} {cam.fy!r} {cam.cx!r} {cam.cy!r} {s.joints_3d is None}".encode())
        for array in (s.joints_2d, s.eval_joints_3d, s.depth_readouts, s.depth_valid, s.eval_visibility,
                      s.depth.values):
            h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestSceneConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SceneConfig(image_width=1)
        with pytest.raises(ValueError):
            SceneConfig(fx_range=(300.0, 200.0))
        with pytest.raises(ValueError):
            SceneConfig(persons_range=(0, 2))
        with pytest.raises(ValueError):
            SceneConfig(occluder_depth_fraction=(0.5, 1.2))
        with pytest.raises(ValueError):
            SceneConfig(yaw_range_deg=(30.0, -30.0))
        with pytest.raises(ValueError):
            SceneConfig(hole_probability=1.5)
        with pytest.raises(ValueError):
            SceneConfig(sensor_noise_mm=-1.0)
        with pytest.raises(ValueError):
            SceneConfig(visibility_margin_mm=0.0)

    def test_dict_round_trip(self):
        config = SceneConfig(fx_range=(240.0, 320.0), occluder_range=(1, 2),
                             background_depth=None, standing_probability=1.0)
        assert SceneConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config

    @pytest.mark.parametrize("field, value", [
        ("persons_range", "13"), ("persons_range", [1.5, 3]), ("persons_range", [1, 2, 3]),
        ("fx_range", ["200", 300.0]), ("image_width", 160.0), ("background_depth", "far"),
        ("sensor_noise_mm", False),
    ])
    def test_wrongly_typed_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SceneConfig.from_dict({field: value})

    def test_unknown_fields_are_named(self):
        with pytest.raises(ValueError, match=r"unknown config fields: \['persons', 'zoom'\]"):
            SceneConfig.from_dict({"zoom": 2, "persons": [1, 2], "image_width": 160})


class TestPrimitiveDepths:
    def test_sphere_on_axis_closed_form(self):
        """A ray through the centre enters the sphere at z - r."""
        center = np.array([0.0, 0.0, 3000.0])
        t = _sphere_depth(np.array(0.0), np.array(0.0), center, 200.0)
        assert t == pytest.approx(2800.0, abs=1e-9)

    def test_sphere_miss_is_inf(self):
        center = np.array([0.0, 0.0, 3000.0])
        # dx = 0.2 passes 600 mm to the side at the sphere's depth.
        t = _sphere_depth(np.array(0.2), np.array(0.0), center, 200.0)
        assert np.isinf(t)

    def test_sphere_off_axis_closed_form(self):
        """Lateral ray: the quadratic for |o + t d - c| = r, smaller root."""
        center = np.array([0.0, 0.0, 3000.0])
        radius, dx = 200.0, 0.01
        dd = dx * dx + 1.0
        da = dx * center[0] + center[2]
        disc = da * da - dd * (center @ center - radius * radius)
        expected = (da - np.sqrt(disc)) / dd
        t = _sphere_depth(np.array(dx), np.array(0.0), center, radius)
        assert t == pytest.approx(expected, rel=1e-12)

    def test_degenerate_capsule_is_a_sphere(self):
        a = np.array([0.0, 0.0, 2500.0])
        t_capsule = _capsule_depth(np.array(0.0), np.array(0.0), a, a.copy(), 150.0)
        assert t_capsule == pytest.approx(2350.0, abs=1e-9)

    def test_perpendicular_cylinder_hit(self):
        """Axis along x, ray down the optical axis: entry at z - r."""
        a = np.array([-500.0, 0.0, 3000.0])
        b = np.array([500.0, 0.0, 3000.0])
        t = _capsule_depth(np.array(0.0), np.array(0.0), a, b, 120.0)
        assert t == pytest.approx(2880.0, abs=1e-9)

    def test_capsule_cap_region(self):
        """Beyond the segment end the sphere cap takes over."""
        a = np.array([-500.0, 0.0, 3000.0])
        b = np.array([500.0, 0.0, 3000.0])
        # Ray aimed past the end point: the nearest axis point clamps to b,
        # so the hit sits exactly one radius from b.
        dx = 550.0 / 3000.0
        t = _capsule_depth(np.array(dx), np.array(0.0), a, b, 120.0)
        assert np.isfinite(t)
        hit = np.array([dx * t, 0.0, t])
        assert hit[0] > b[0]
        assert np.linalg.norm(hit - b) == pytest.approx(120.0, rel=1e-9)

    def test_capsule_miss_beyond_cap(self):
        a = np.array([-500.0, 0.0, 3000.0])
        b = np.array([500.0, 0.0, 3000.0])
        t = _capsule_depth(np.array(650.0 / 3000.0), np.array(0.0), a, b, 120.0)
        assert np.isinf(t)

    def test_min_composition_of_overlapping_spheres(self):
        near = np.array([0.0, 0.0, 2000.0])
        far = np.array([0.0, 0.0, 2100.0])
        t_near = _sphere_depth(np.array(0.0), np.array(0.0), near, 100.0)
        t_far = _sphere_depth(np.array(0.0), np.array(0.0), far, 100.0)
        assert min(t_near, t_far) == t_near == pytest.approx(1900.0, abs=1e-9)


class TestRenderCleanDepth:
    def _config(self, **kwargs):
        return SceneConfig(sensor_noise_mm=0.0, hole_probability=0.0,
                           detector_noise_px=0.0, **kwargs)

    def test_rectangle_occluder_reads_its_own_z(self):
        config = self._config()
        occ = Occluder(center=np.array([0.0, 0.0, 1500.0]), half_width=400.0, half_height=300.0)
        clean = render_clean_depth([], [occ], CAM, config, SPEC)
        # Pixel footprint: |dx * 1500| <= 400  ->  |u - cx| <= fx * 4 / 15.
        assert clean[60, 80] == 1500.0
        assert clean[60, 80 + 60] == 1500.0  # dx = 60/260 -> 346 mm, inside
        assert clean[60, 80 + 75] == config.background_depth  # 433 mm, outside
        assert clean[60 - 50, 80] == 1500.0  # dy -> 288 mm, inside
        assert clean[60 - 55, 80] == config.background_depth

    def test_concentric_spheres_read_largest_radius(self):
        """All joints at one point make every bone a concentric sphere, so
        the principal-point pixel reads z minus the largest bone radius."""
        config = self._config()
        z = 4000.0
        pose = np.tile([0.0, 0.0, z], (17, 1))
        clean = render_clean_depth([pose], [], CAM, config, SPEC)
        biggest = max(_BONE_RADII.values())
        assert clean[60, 80] == pytest.approx(z - biggest, abs=1e-9)

    def test_empty_scene_without_background_is_all_nan(self):
        config = self._config(background_depth=None)
        clean = render_clean_depth([], [], CAM, config, SPEC)
        assert np.isnan(clean).all()

    def test_background_fills_misses(self):
        config = self._config()
        clean = render_clean_depth([], [], CAM, config, SPEC)
        np.testing.assert_array_equal(clean, np.full((120, 160), config.background_depth))


class TestCulledRenderer:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scenes())
    def test_matches_the_full_frame_renderer_bit_for_bit(self, scene):
        poses, occluders, cam, config = scene
        culled = render_clean_depth(poses, occluders, cam, config, SPEC)
        assert culled.tobytes() == ref_render_clean_depth(poses, occluders, cam, config, SPEC).tobytes()

    def test_a_bone_is_solved_over_a_small_window(self):
        dx = (np.arange(160.0) - CAM.cx) / CAM.fx
        dy = (np.arange(120.0) - CAM.cy) / CAM.fy
        a, b = np.array([0.0, 0.0, 4000.0]), np.array([0.0, 400.0, 4000.0])
        rows, cols = _pixel_window(np.minimum(a, b) - 40.0, np.maximum(a, b) + 40.0, dx, dy)
        # The box spans x / z in +-40 / 3960 and y / z in [-40 / 3960, 440 / 3960]:
        # columns 78-82 and rows 58-88 at fx = fy = 260, plus one pixel each side.
        assert (rows.start, rows.stop, cols.start, cols.stop) == (57, 90, 77, 84)
        full = _capsule_depth(dx[None, :], dy[:, None], a, b, 40.0)
        hits = np.argwhere(np.isfinite(full))
        assert hits[:, 0].min() > rows.start and hits[:, 0].max() < rows.stop - 1
        assert hits[:, 1].min() > cols.start and hits[:, 1].max() < cols.stop - 1

    def test_a_box_reaching_behind_the_camera_gets_the_whole_frame(self):
        dx, dy = np.arange(4.0), np.arange(3.0)
        window = _pixel_window(np.array([0.0, 0.0, -10.0]), np.array([1.0, 1.0, 50.0]), dx, dy)
        assert window == (slice(None), slice(None))


class TestGeneratePose:
    def test_bone_lengths_stay_inside_scaled_template_bounds(self):
        config = SceneConfig()
        rng = _rng(0)
        lo, hi = config.bone_scale_range
        bounds = {}
        for parent, child in SPEC.bones():
            lengths = [float(np.linalg.norm(t[child] - t[parent])) for t in (_STANDING, _SITTING)]
            bounds[(parent, child)] = (lo * min(lengths) - 1e-9, hi * max(lengths) + 1e-9)
        for _ in range(500):
            pose = generate_pose(rng, config, SPEC)
            for (parent, child), (lo_mm, hi_mm) in bounds.items():
                length = float(np.linalg.norm(pose[child] - pose[parent]))
                assert lo_mm <= length <= hi_mm, (parent, child, length)

    def test_knee_neck_extent_is_usable(self):
        config = SceneConfig()
        rng = _rng(1)
        for _ in range(300):
            assert knee_neck_distance(generate_pose(rng, config, SPEC), SPEC) > 1.0

    def test_zero_jitter_unit_scale_frontal_reproduces_the_template(self):
        config = SceneConfig(joint_jitter_deg=0.0, bone_scale_range=(1.0, 1.0),
                             yaw_range_deg=(0.0, 0.0), standing_probability=1.0)
        pose = generate_pose(_rng(2), config, SPEC)
        np.testing.assert_allclose(pose, _STANDING, rtol=0, atol=1e-9)


class TestGenerateScene:
    def test_counts_and_shapes(self):
        config = SceneConfig(persons_range=(2, 3), occluder_range=(1, 2))
        scene = generate_scene(_rng(3), config, SPEC)
        assert 2 <= len(scene.poses) <= 3
        assert 1 <= len(scene.occluders) <= 2
        assert len(scene.visibility) == len(scene.poses)
        assert scene.depth.values.shape == (config.image_height, config.image_width)
        for pose, visible in zip(scene.poses, scene.visibility):
            assert pose.shape == (17, 3)
            assert visible.shape == (17,) and visible.dtype == bool
            assert (pose[:, 2] > config.min_scene_depth_mm).all()

    def test_out_of_frame_joints_are_flagged_occluded(self):
        config = SceneConfig()
        hit = 0
        for seed in range(10):
            scene = generate_scene(_rng(100 + seed), config, SPEC)
            for pose, visible in zip(scene.poses, scene.visibility):
                pix = project(pose, scene.camera)
                outside = (
                    (pix[:, 0] < 0.0) | (pix[:, 0] > scene.width - 1)
                    | (pix[:, 1] < 0.0) | (pix[:, 1] > scene.height - 1)
                )
                assert not visible[outside].any()
                hit += int(outside.sum())
        assert hit > 0  # the default config does produce clipped joints

    def test_occluder_depths_respect_the_fraction_range(self):
        config = SceneConfig(occluder_range=(2, 2), occluder_depth_fraction=(0.3, 0.5))
        for seed in range(5):
            scene = generate_scene(_rng(200 + seed), config, SPEC)
            max_z = max(float(p[:, 2].max()) for p in scene.poses)
            for occ in scene.occluders:
                assert 500.0 <= occ.center[2] <= 0.5 * max_z + 1e-9


class TestConstructedOcclusion:
    def test_rectangle_in_front_of_the_upper_body(self):
        """Joints behind the rectangle are flagged and read the occluder's
        depth; the lower body stays visible and reads its own shell."""
        config = SceneConfig(sensor_noise_mm=0.0, hole_probability=0.0,
                             detector_noise_px=0.0, joint_jitter_deg=0.0,
                             bone_scale_range=(1.0, 1.0), yaw_range_deg=(0.0, 0.0),
                             standing_probability=1.0)
        pose = generate_pose(_rng(4), config, SPEC) + np.array([0.0, 0.0, 4000.0])
        occ = Occluder(center=np.array([0.0, -380.0, 2000.0]),
                       half_width=500.0, half_height=200.0)
        depth, visibility = render_depth([pose], [occ], CAM, config, SPEC, _rng(5))
        flags = visibility[0]

        blocked = [0, 1, 2, 5, 16]  # head top, neck, both shoulders, head
        clear = [4, 7, 9, 10, 12, 13]  # wrists, knees, ankles
        assert not flags[blocked].any()
        assert flags[clear].all()

        readout = read_depth_at(depth, project(pose, CAM))
        np.testing.assert_allclose(readout.values[blocked], 2000.0, rtol=0, atol=1e-6)
        assert (readout.values[blocked] < pose[blocked, 2] - config.visibility_margin_mm).all()
        for j in clear:
            assert abs(readout.values[j] - pose[j, 2]) <= _incident_radius(j) + 1.0


class TestSceneToSamples:
    def _scene_and_config(self, seed, **kwargs):
        config = SceneConfig(**kwargs)
        rng = _rng(seed)
        scene = generate_scene(rng, config, SPEC)
        return scene, config, rng

    def test_one_sample_per_person_with_shared_frame(self):
        scene, config, rng = self._scene_and_config(6, persons_range=(3, 3))
        samples = scene_to_samples(scene, config, rng, "frame7")
        assert len(samples) == 3
        for sample, pose in zip(samples, scene.poses):
            assert sample.frame_id == "frame7"
            assert sample.camera == scene.camera
            np.testing.assert_array_equal(sample.joints_3d, pose)

    def test_readouts_are_taken_at_true_projections(self):
        """Cached readouts equal a lookup at the noise-free projections,
        even though the stored 2D joints carry detector noise."""
        scene, config, rng = self._scene_and_config(7)
        samples = scene_to_samples(scene, config, rng, "f0")
        for sample, pose in zip(samples, scene.poses):
            ref = read_depth_at(scene.depth, project(pose, scene.camera))
            np.testing.assert_array_equal(sample.depth_readouts, ref.values)
            np.testing.assert_array_equal(sample.depth_valid, ref.valid)
            assert not np.array_equal(sample.joints_2d, project(pose, scene.camera))

    def test_noiseless_detector_keeps_exact_projections(self):
        scene, config, rng = self._scene_and_config(8, detector_noise_px=0.0)
        samples = scene_to_samples(scene, config, rng, "f0")
        for sample, pose in zip(samples, scene.poses):
            np.testing.assert_allclose(
                sample.joints_2d, project(pose, scene.camera), rtol=0, atol=1e-6
            )

    def test_detector_noise_magnitude(self):
        scene, config, rng = self._scene_and_config(9, persons_range=(4, 4))
        samples = scene_to_samples(scene, config, rng, "f0")
        residuals = np.concatenate(
            [s.joints_2d - project(p, scene.camera) for s, p in zip(samples, scene.poses)]
        )
        assert 1.0 < residuals.std() < 3.5  # 2 px nominal


class TestGenerateDataset:
    def test_counts_and_annotation_split(self):
        dataset = generate_dataset(_rng(10), SceneConfig(), 5, 7, SPEC)
        assert len(dataset.annotated) == 5
        assert len(dataset.weak) == 7
        for sample in dataset.annotated:
            assert sample.joints_3d is not None
            assert sample.eval_joints_3d is not None
            assert sample.eval_visibility is not None
        for sample in dataset.weak:
            assert sample.joints_3d is None
            assert sample.eval_joints_3d is not None
            assert sample.depth_readouts is not None

    def test_weak_only_dataset(self):
        dataset = generate_dataset(_rng(11), SceneConfig(), 0, 4, SPEC)
        assert not dataset.annotated
        assert len(dataset.weak) == 4

    def test_negative_counts_raise(self):
        with pytest.raises(ValueError):
            generate_dataset(_rng(12), SceneConfig(), -1, 0, SPEC)

    def test_bit_identical_datasets_for_equal_seeds(self):
        a = generate_dataset(_rng(13), SceneConfig(), 4, 4, SPEC)
        b = generate_dataset(_rng(13), SceneConfig(), 4, 4, SPEC)
        for sa, sb in zip(a.all_samples(), b.all_samples()):
            assert sa.frame_id == sb.frame_id
            assert sa.camera == sb.camera
            np.testing.assert_array_equal(sa.joints_2d, sb.joints_2d)
            np.testing.assert_array_equal(sa.depth_readouts, sb.depth_readouts)
            assert sa.depth.values.tobytes() == sb.depth.values.tobytes()
            if sa.joints_3d is None:
                assert sb.joints_3d is None
            else:
                np.testing.assert_array_equal(sa.joints_3d, sb.joints_3d)

    def test_different_seeds_differ(self):
        a = generate_dataset(_rng(14), SceneConfig(), 2, 0, SPEC)
        b = generate_dataset(_rng(15), SceneConfig(), 2, 0, SPEC)
        assert not np.array_equal(a.annotated[0].joints_2d, b.annotated[0].joints_2d)


class TestPinnedDatasets:
    """The first scenes of the seed-0 criterion-4 and criterion-5
    training sets keep their bytes."""

    def test_criterion_4_scenes(self):
        dataset = generate_dataset(_rng([0, 100]), C4_SCENE, 12, 24, SPEC)
        assert _dataset_digest(dataset) == C4_DIGEST

    def test_criterion_5_scenes(self):
        dataset = generate_dataset(_rng([0, 100]), C5_SCENE, 10, 20, SPEC)
        assert _dataset_digest(dataset) == C5_DIGEST


class TestStatisticalProperties:
    def test_visible_joints_read_their_own_depth(self):
        """At 99%+ of visible joints the cached readout sits within
        3 sigma of sensor noise plus the interpolation footprint (the
        joint's body shell plus the spread of the four clean pixels)."""
        config = SceneConfig()
        checked = 0
        good = 0
        for seed in range(60):
            rng = _rng(300 + seed)
            scene = generate_scene(rng, config, SPEC)
            clean = render_clean_depth(scene.poses, scene.occluders, scene.camera, config, SPEC)
            samples = scene_to_samples(scene, config, rng, f"f{seed}")
            for sample, pose, visible in zip(samples, scene.poses, scene.visibility):
                pix = project(pose, scene.camera)
                for j in range(17):
                    if not (visible[j] and sample.depth_valid[j]):
                        continue
                    x0 = min(int(np.floor(pix[j, 0])), scene.width - 2)
                    y0 = min(int(np.floor(pix[j, 1])), scene.height - 2)
                    corners = clean[y0 : y0 + 2, x0 : x0 + 2]
                    spread = float(np.nanmax(corners) - np.nanmin(corners))
                    bound = 3.0 * config.sensor_noise_mm + _incident_radius(j) + spread
                    checked += 1
                    good += abs(sample.depth_readouts[j] - pose[j, 2]) < bound
        assert checked > 600
        assert good / checked >= 0.99

    def test_occluded_fraction_grows_with_occluder_count(self):
        fractions = []
        for count in range(4):
            config = SceneConfig(occluder_range=(count, count))
            occluded = total = 0
            for seed in range(60):
                scene = generate_scene(_rng([count, seed]), config, SPEC)
                for visible in scene.visibility:
                    occluded += int((~visible).sum())
                    total += visible.size
            fractions.append(occluded / total)
        for a, b in zip(fractions, fractions[1:]):
            assert b >= a - 0.01
        assert fractions[-1] > fractions[0] + 0.03
