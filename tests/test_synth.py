"""Synthetic scene generator tests.

The analytic renderer is pinned by closed-form cases: concentric spheres
on the optical axis read (z - max radius) at the principal point, a
fronto-parallel rectangle reads exactly its own z over its footprint,
and an empty scene with no background is all NaN.  Dataset-level checks
cover determinism, anthropometric bone bounds, the visibility flags of
a hand-built occluded scene, and two statistical properties: visible
joints read their own depth to within noise plus interpolation error,
and the occluded fraction grows with the number of occluders.
"""

import numpy as np
import pytest

from poselift.depth import read_depth_at
from poselift.geometry import CameraIntrinsics, project
from poselift.skeleton import default_skeleton, knee_neck_distance
from poselift.synth import (
    _BONE_RADII,
    _SITTING,
    _STANDING,
    Occluder,
    SceneConfig,
    _capsule_depth,
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
        assert SceneConfig.from_dict(config.to_dict()) == config

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
