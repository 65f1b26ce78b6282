"""Synthetic scene generator tests.

The analytic renderer is pinned by closed-form cases: concentric spheres
on the optical axis read (z - max radius) at the principal point, a
fronto-parallel rectangle reads exactly its own z over its footprint,
and an empty scene with no background is all NaN.  Dataset-level checks
cover determinism, anthropometric bone bounds, the visibility flags of
a hand-built occluded scene, and two statistical properties: visible
joints read their own depth to within noise plus interpolation error,
and the occluded fraction grows with the number of occluders.

The renderer solves all capsules of a frame as one array of (pixel,
capsule) pairs over their pixel windows, and each occluder as a row mask
times a column mask.  The per-primitive solvers and the full-frame loop
it replaced are kept here as the reference, and property tests require
the two to agree to the bit on small random scenes.  The per-pair
occluder fold and the per-bone pose generator are kept here too, and the
array versions must match them byte for byte; a guard test pins the one numpy property the array
versions rely on, that ``np.vecdot`` rounds as per-row ``.dot`` does.
Where ``cc`` builds the compiled render loop, it must give the bytes of
the numpy passes and of the full-frame renderer on 1,002 generated
frames of three configs and on edge cases, and the numpy passes are
forced by the ``numpy_passes`` fixture.  Dataset digests pinned
from the full-frame renderer guard the criterion-4 and criterion-5
scene configs end to end, on both paths.
"""

import contextlib
import hashlib
import json
import math
import re
import shutil
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift import compiled
from poselift.depth import DepthMap, read_depth_at
from poselift.geometry import CameraIntrinsics, project
from poselift.skeleton import default_skeleton, knee_neck_distance
from poselift.synth import (
    _BONE_RADII,
    _SITTING,
    _STANDING,
    Occluder,
    Scene,
    SceneConfig,
    _fold_capsules,
    _fold_occluders,
    _pixel_windows,
    _tree_order,
    _window_pairs,
    generate_dataset,
    generate_pose,
    generate_scene,
    render_clean_depth,
    render_depth,
    scene_to_samples,
)

SPEC = default_skeleton()
CAM = CameraIntrinsics(fx=260.0, fy=260.0, cx=80.0, cy=60.0, width=160, height=120)
FORCED = "the numpy passes (forced by the test)"
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def _both_paths(numpy_passes, *args):
    """render_clean_depth(*args)'s bytes on the default path, which is the
    compiled loop where ``cc`` is found, and on the numpy passes."""
    default = render_clean_depth(*args).tobytes()
    with numpy_passes():
        return default, render_clean_depth(*args).tobytes()


def _flags(scene, config):
    """The eval_visibility of each person in the scene, as
    ``scene_to_samples`` sets it."""
    return [s.eval_visibility for s in scene_to_samples(scene, config, _rng(0), "f")]


def _incident_radius(joint: int) -> float:
    """Largest capsule radius touching a joint (own bone or a child's)."""
    radii = []
    for parent, child in SPEC.bones():
        if joint in (parent, child):
            radii.append(_BONE_RADII[SPEC.joint_names[child]])
    return max(radii)


def _sphere_depth(dx, dy, center, radius):
    dd = dx * dx + dy * dy + 1.0
    da = dx * center[0] + dy * center[1] + center[2]
    disc = da * da - dd * (float(center @ center) - radius * radius)
    with np.errstate(invalid="ignore"):
        t = (da - np.sqrt(disc)) / dd
    return np.where((disc >= 0.0) & (t > 0.0), t, np.inf)


def _capsule_depth(dx, dy, a, b, radius):
    """Smallest positive z at which the pixel rays hit a capsule, inf if missed.

    Rays are (dx, dy, 1) so the ray parameter equals the hit's z
    coordinate.  The cylindrical body and the two sphere caps are solved
    as quadratics; only entry points count (the camera sits outside).
    """
    m = b - a
    length = float(np.linalg.norm(m))
    if length < 1e-9:
        return _sphere_depth(dx, dy, a, radius)
    axis = m / length

    d_par = dx * axis[0] + dy * axis[1] + axis[2]
    dd = dx * dx + dy * dy + 1.0
    d_perp_sq = np.maximum(dd - d_par * d_par, 0.0)
    a_par = float(a @ axis)
    da = dx * a[0] + dy * a[1] + a[2]
    cross = da - d_par * a_par  # d_perp . a_perp
    a_perp_sq = float(a @ a) - a_par * a_par

    disc = cross * cross - d_perp_sq * (a_perp_sq - radius * radius)
    with np.errstate(invalid="ignore", divide="ignore"):
        t_cyl = (cross - np.sqrt(disc)) / d_perp_sq
        along = t_cyl * d_par - a_par
    cyl_ok = (disc >= 0.0) & (d_perp_sq > 1e-12) & (t_cyl > 0.0) & (along >= 0.0) & (along <= length)
    best = np.where(cyl_ok, t_cyl, np.inf)
    best = np.minimum(best, _sphere_depth(dx, dy, a, radius))
    best = np.minimum(best, _sphere_depth(dx, dy, b, radius))
    return best


def _occluder_depth(dx, dy, occ: Occluder):
    z = float(occ.center[2])
    hit = (np.abs(dx * z - occ.center[0]) <= occ.half_width) & (
        np.abs(dy * z - occ.center[1]) <= occ.half_height
    )
    return np.where(hit, z, np.inf)


def _body_capsules(pose, spec):
    return [(pose[parent], pose[child], _BONE_RADII[spec.joint_names[child]]) for parent, child in spec.bones()]


def _ray_span(rays, lo, hi):
    """Indices of the sorted ray slopes in [lo, hi], padded by one each side."""
    start = max(int(np.searchsorted(rays, lo)) - 1, 0)
    return slice(start, int(np.searchsorted(rays, hi, side="right")) + 1)


def _pixel_window(lo, hi, dx, dy):
    """Rows and columns of the pixels whose rays can meet the box [lo, hi]:
    the whole frame when the box reaches z <= 0."""
    if lo[2] <= 0.0:
        return slice(None), slice(None)
    xs = (lo[0] / lo[2], lo[0] / hi[2], hi[0] / lo[2], hi[0] / hi[2])
    ys = (lo[1] / lo[2], lo[1] / hi[2], hi[1] / lo[2], hi[1] / hi[2])
    return _ray_span(dy, min(ys), max(ys)), _ray_span(dx, min(xs), max(xs))


def ref_fold_occluders(best, dx, dy, occluders):
    """The per-pair occluder fold: every (pixel, occluder) pair of the
    occluders' pixel windows, folded into the flat frame ``best``."""
    center = np.array([occ.center for occ in occluders], dtype=np.float64)
    half = np.array([(occ.half_width, occ.half_height, 0.0) for occ in occluders])
    pixel, x, y, counts = _window_pairs(_pixel_windows(center - half, center + half, dx, dy), dx, dy)
    cx, cy, z, half_w, half_h = np.repeat(np.vstack([center.T, half[:, :2].T]), counts, axis=1)
    hit = (np.abs(x * z - cx) <= half_w) & (np.abs(y * z - cy) <= half_h)
    np.minimum.at(best, pixel, np.where(hit, z, np.inf))


def _rotate(v, axis, angle):
    """Rodrigues rotation of v around a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    (a0, a1, a2), (v0, v1, v2) = axis.tolist(), v.tolist()
    cross = np.array([a1 * v2 - a2 * v1, a2 * v0 - a0 * v2, a0 * v1 - a1 * v0])
    return v * c + cross * s + axis * np.dot(axis, v) * (1.0 - c)


def ref_pose_draw(rng, config, spec):
    """One draw of the per-bone pose generator, before the knee-neck check."""
    sigma = math.radians(config.joint_jitter_deg)
    template = _STANDING if rng.random() < config.standing_probability else _SITTING
    yaw = math.radians(rng.uniform(*config.yaw_range_deg))
    c, s = math.cos(yaw), math.sin(yaw)
    template = template @ np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]).T
    pose = np.zeros_like(template)
    for child in _tree_order(spec)[1:]:
        parent = spec.parents[child]
        bone = template[child] - template[parent]
        length = math.sqrt(bone.dot(bone))
        axis = rng.normal(size=3)
        axis /= math.sqrt(axis.dot(axis))
        angle = min(max(rng.normal(0.0, sigma), -2.5 * sigma), 2.5 * sigma)
        direction = _rotate(bone / length, axis, angle)
        scale = rng.uniform(*config.bone_scale_range)
        pose[child] = pose[parent] + direction * (length * scale)
    return pose


def ref_generate_pose(rng, config, spec):
    """The per-bone pose generator: draws until the knee-neck check passes."""
    while True:
        pose = ref_pose_draw(rng, config, spec)
        if knee_neck_distance(pose, spec) > 1.0:
            return pose


def ref_render_clean_depth(poses, occluders, cam, config, spec):
    """The full-frame renderer: every primitive solved over every pixel."""
    dx = (np.arange(cam.width, dtype=np.float64) - cam.cx) / cam.fx
    dy = (np.arange(cam.height, dtype=np.float64) - cam.cy) / cam.fy
    dx = dx[None, :]
    dy = dy[:, None]
    best = np.full((cam.height, cam.width), np.inf)
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
                           cx=rng.uniform(-0.2, 1.2) * width, cy=rng.uniform(-0.2, 1.2) * height,
                           width=width, height=height)
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


@st.composite
def boxes(draw):
    """(lo, hi) boxes in front of, reaching behind and wholly behind the camera."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.uniform([-3000.0, -3000.0, -800.0], [3000.0, 3000.0, 6000.0])
    half = rng.uniform(0.0, draw(st.sampled_from([1.0, 50.0, 700.0])), size=3)
    return center - half, center + half


@st.composite
def occluder_frames(draw):
    """(best, dx, dy, occluders): a frame partly filled with depths and
    1-5 rectangles on it, across its edge, wholly off it, or with the
    centre at z <= 0 (z = 0 among them)."""
    width, height = draw(st.integers(2, 40)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    focal = draw(st.sampled_from([3.0, 40.0, 260.0]))
    dx = (np.arange(width, dtype=np.float64) - rng.uniform(-0.2, 1.2) * width) / focal
    dy = (np.arange(height, dtype=np.float64) - rng.uniform(-0.2, 1.2) * height) / (focal * rng.uniform(0.8, 1.2))
    best = np.where(rng.random(width * height) < 0.5, rng.uniform(300.0, 9000.0, width * height), np.inf)
    occluders = []
    for kind in draw(st.lists(st.sampled_from(["on", "edge", "off", "behind"]), min_size=1, max_size=5)):
        half_w, half_h = rng.uniform(1.0, 800.0, size=2)
        if kind == "behind":
            z = draw(st.sampled_from([0.0, -rng.uniform(1.0, 3000.0)]))
            center = [rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0), z]
        else:
            z = rng.uniform(300.0, 6000.0)
            if kind == "on":
                sx, sy = rng.uniform(dx[0], dx[-1]), rng.uniform(dy[0], dy[-1])
                center = [sx * z, sy * z, z]
            elif kind == "edge":
                center = [dx[-1] * z + rng.uniform(-0.9, 0.9) * half_w, rng.uniform(dy[0], dy[-1]) * z, z]
            else:  # beyond the last column by more than the half width
                center = [dx[-1] * z + half_w * rng.uniform(1.01, 3.0), rng.uniform(dy[0], dy[-1]) * z, z]
        occluders.append(Occluder(center=np.array(center), half_width=half_w, half_height=half_h))
    return best, dx, dy, occluders


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

    @pytest.mark.parametrize("field, value", [
        ("sensor_noise_mm", float("nan")), ("standing_probability", float("nan")),
        ("fx_range", (220.0, float("inf"))), ("root_depth_range", (float("nan"), 7000.0)),
        ("yaw_range_deg", (float("-inf"), 0.0)), ("background_depth", float("inf")),
        ("hole_probability", float("nan")), ("visibility_margin_mm", float("inf")),
        ("fy_jitter", float("nan")), ("min_scene_depth_mm", float("-inf")),
    ])
    def test_non_finite_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got "):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("field, value, need", [
        ("image_width", 100.5, "int"), ("image_height", True, "int"),
        ("persons_range", (1.5, 2), r"tuple\[int, int\]"), ("occluder_range", (0, True), r"tuple\[int, int\]"),
    ])
    def test_int_field_refuses_a_float_or_a_bool(self, field, value, need):
        """As ``from_dict`` does, also for a config built in code."""
        with pytest.raises(ValueError, match=rf"^{field} must be {need}, got {re.escape(repr(value))}$"):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_standing_probability_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"standing_probability must be in \[0, 1\]"):
            SceneConfig(standing_probability=value)

    @pytest.mark.parametrize("field, value, need", [
        ("fy_jitter", 1.5, r"in \[0, 1\)"), ("fy_jitter", 1.0, r"in \[0, 1\)"), ("fy_jitter", -0.1, r"in \[0, 1\)"),
        ("root_margin", 0.8, r"in \[0, 0\.5\]"), ("root_margin", -0.1, r"in \[0, 0\.5\]"),
        ("background_depth", -1, "null or > 0"), ("background_depth", 0.0, "null or > 0"),
        ("principal_jitter", 5.0, r"in \[0, 0\.5\]"), ("principal_jitter", -0.5, r"in \[0, 0\.5\]"),
        ("min_scene_depth_mm", 1e6, r"> 0 and below root_depth_range\[1\] = 7000\.0"),
        ("min_scene_depth_mm", -50.0, r"> 0 and below root_depth_range\[1\] = 7000\.0"),
        ("min_scene_depth_mm", 0.0, r"> 0 and below root_depth_range\[1\] = 7000\.0"),
        ("hole_probability", 1.5, r"in \[0, 1\)"), ("visibility_margin_mm", 0.0, "> 0"),
        ("detector_noise_px", -1.0, ">= 0"), ("yaw_range_deg", (30.0, -30.0), r"\(lo, hi\) with lo <= hi"),
        ("persons_range", (0, 2), r"\(lo, hi\) with 1 <= lo <= hi"),
        ("occluder_range", (2, 1), r"\(lo, hi\) with 0 <= lo <= hi"), ("image_height", 1, ">= 2"),
    ])
    def test_value_that_would_fail_generation_names_the_field(self, field, value, need):
        """Values outside the ranges generation can use are rejected by
        name, not left to fail while drawing a scene with numpy's, the
        camera's or the projection's message."""
        with pytest.raises(ValueError, match=rf"^{field} must be {need}, got {re.escape(repr(value))}$"):
            SceneConfig(**{field: value})

    @pytest.mark.parametrize("root_depth_range, min_depth", [((10.0, 20.0), 300.0), ((200.0, 300.0), -50.0)])
    def test_min_scene_depth_is_checked_against_the_root_depths(self, root_depth_range, min_depth):
        need = rf"> 0 and below root_depth_range\[1\] = {re.escape(repr(root_depth_range[1]))}, got "
        with pytest.raises(ValueError, match=rf"^min_scene_depth_mm must be {need}{re.escape(repr(min_depth))}$"):
            SceneConfig(root_depth_range=root_depth_range, min_scene_depth_mm=min_depth)

    def test_a_range_with_no_room_for_a_body_names_both_fields(self):
        """min_scene_depth_mm below the root depths passes the rules, but a
        body around a root at 2000 mm reaches nearer than 1999 mm."""
        config = SceneConfig(root_depth_range=(2000.0, 2000.0), min_scene_depth_mm=1999.0)
        message = r"root_depth_range=\(2000\.0, 2000\.0\) .* min_scene_depth_mm=1999\.0$"
        with pytest.raises(ValueError, match=message):
            generate_scene(_rng(0), config)

    def test_standing_probability_bounds_are_allowed(self):
        assert SceneConfig(standing_probability=0.0).standing_probability == 0.0
        assert SceneConfig(standing_probability=1.0).standing_probability == 1.0

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

    def test_a_scene_without_persons_has_no_visibility_flags(self):
        config = self._config()
        occ = Occluder(center=np.array([0.0, 0.0, 1500.0]), half_width=400.0, half_height=300.0)
        depth, clean = render_depth([], [occ], CAM, config, _rng(0))
        assert _flags(Scene(camera=CAM, poses=[], occluders=[occ], depth=depth, clean=clean), config) == []
        assert depth.values[60, 80] == 1500.0
        assert clean.values[60, 80] == 1500.0

    def test_background_fills_misses(self):
        config = self._config()
        clean = render_clean_depth([], [], CAM, config, SPEC)
        np.testing.assert_array_equal(clean, np.full((120, 160), config.background_depth))

    def test_frame_size_is_the_cameras(self):
        cam = CameraIntrinsics(fx=60.0, fy=60.0, cx=20.0, cy=15.0, width=40, height=30)
        occ = Occluder(center=np.array([0.0, 0.0, 1500.0]), half_width=400.0, half_height=300.0)
        clean = render_clean_depth([], [occ], cam, SceneConfig(), SPEC)
        assert clean.shape == (30, 40)
        assert clean[15, 20] == 1500.0

    @pytest.mark.parametrize("shape", [(17, 4), (16, 3)])
    def test_a_pose_of_another_shape_raises(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"poses must be (17, 3) arrays, got {shape}")):
            render_clean_depth([np.full(shape, 3000.0)], [], CAM, SceneConfig(), SPEC)

    @pytest.mark.parametrize("path", ["default", "numpy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_pose_that_is_not_finite_raises_on_both_paths(self, numpy_passes, path, value):
        pose = _STANDING + [0.0, 0.0, 3000.0]
        pose[9, 0] = value  # the right knee's x
        with numpy_passes() if path == "numpy" else contextlib.nullcontext():
            with pytest.raises(ValueError, match="^poses must be finite$"):
                render_clean_depth([pose], [], CAM, SceneConfig(), SPEC)

    def test_another_skeleton_raises(self):
        renamed = replace(SPEC, joint_names=("crown",) + SPEC.joint_names[1:])
        with pytest.raises(ValueError, match="only knows the built-in 17-joint skeleton"):
            render_clean_depth([], [], CAM, SceneConfig(), renamed)


class TestCulledRenderer:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scenes())
    def test_matches_the_full_frame_renderer_bit_for_bit(self, numpy_passes, scene):
        args = (*scene, SPEC)
        default, forced = _both_paths(numpy_passes, *args)
        assert default == forced == ref_render_clean_depth(*args).tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(boxes(), min_size=1, max_size=8), st.sampled_from([3.0, 40.0, 260.0]))
    def test_windows_equal_the_per_box_windows(self, box_list, focal):
        dx = (np.arange(160.0) - 80.0) / focal
        dy = (np.arange(120.0) - 60.0) / (0.9 * focal)
        lo, hi = np.array([b[0] for b in box_list]), np.array([b[1] for b in box_list])
        for k, window in enumerate(zip(*_pixel_windows(lo, hi, dx, dy))):
            rows, cols = _pixel_window(lo[k], hi[k], dx, dy)
            assert window == (*rows.indices(120)[:2], *cols.indices(160)[:2])

    def test_near_degenerate_capsule_is_the_sphere_at_a(self):
        """0 < |b - a| < 1e-9 mm: only the sphere at a, although the sphere
        at b, 9e-10 mm nearer the camera, would read nearer."""
        dx = (np.arange(160.0) - CAM.cx) / CAM.fx
        dy = (np.arange(120.0) - CAM.cy) / CAM.fy
        a = np.array([120.0, -80.0, 2500.0])
        b = a - np.array([0.0, 0.0, 9e-10])
        assert 0.0 < np.linalg.norm(b - a) < 1e-9
        best = np.full(120 * 160, np.inf)
        _fold_capsules(best, dx, dy, a[None], b[None], np.array([150.0]))
        sphere_a = _sphere_depth(dx[None, :], dy[:, None], a, 150.0)
        assert best.reshape(120, 160).tobytes() == sphere_a.tobytes()
        assert (_sphere_depth(dx[None, :], dy[:, None], b, 150.0) < sphere_a).any()

    def test_a_bone_is_solved_over_a_small_window(self):
        dx = (np.arange(160.0) - CAM.cx) / CAM.fx
        dy = (np.arange(120.0) - CAM.cy) / CAM.fy
        a, b = np.array([0.0, 0.0, 4000.0]), np.array([0.0, 400.0, 4000.0])
        lo, hi = np.minimum(a, b) - 40.0, np.maximum(a, b) + 40.0
        rows, cols = _pixel_window(lo, hi, dx, dy)
        # The box spans x / z in +-40 / 3960 and y / z in [-40 / 3960, 440 / 3960]:
        # columns 78-82 and rows 58-88 at fx = fy = 260, plus one pixel each side.
        assert (rows.start, rows.stop, cols.start, cols.stop) == (57, 90, 77, 84)
        assert [int(w[0]) for w in _pixel_windows(lo[None], hi[None], dx, dy)] == [57, 90, 77, 84]
        full = _capsule_depth(dx[None, :], dy[:, None], a, b, 40.0)
        hits = np.argwhere(np.isfinite(full))
        assert hits[:, 0].min() > rows.start and hits[:, 0].max() < rows.stop - 1
        assert hits[:, 1].min() > cols.start and hits[:, 1].max() < cols.stop - 1

    def test_a_box_reaching_behind_the_camera_gets_the_whole_frame(self):
        dx, dy = np.arange(4.0), np.arange(3.0)
        lo, hi = np.array([0.0, 0.0, -10.0]), np.array([1.0, 1.0, 50.0])
        assert _pixel_window(lo, hi, dx, dy) == (slice(None), slice(None))
        assert [int(w[0]) for w in _pixel_windows(lo[None], hi[None], dx, dy)] == [0, 3, 0, 4]


NEAR_SCENE = SceneConfig(background_depth=None, root_depth_range=(800.0, 3000.0))


def _edge_scene(case):
    """(poses, occluders, camera, config) of one edge case of the windows
    and the capsule solve."""
    occluders = [Occluder(center=np.array([-300.0, 100.0, 1500.0]), half_width=400.0, half_height=300.0),
                 Occluder(center=np.array([500.0, -200.0, 2200.0]), half_width=250.0, half_height=600.0)]
    pose = _STANDING + [0.0, 0.0, 3000.0]
    if case == "box-behind-camera":  # the feet reach z < 0, and every box of the second pose z < 45 mm
        return [_SITTING + [100.0, 0.0, 300.0], _STANDING + [0.0, 0.0, 30.0]], [], CAM, SceneConfig()
    if case == "short-capsules":  # one bone of 9e-10 mm, one of 0 mm
        pose[9] = pose[8] + [0.0, 0.0, 9e-10]
        pose[4] = pose[3]
        return [pose], occluders[:1], CAM, SceneConfig(background_depth=None)
    if case == "no-poses":
        return [], [], CAM, SceneConfig()
    return [], occluders, CAM, SceneConfig(background_depth=None)  # occluders only


@needs_cc
class TestCompiledRender:
    """The compiled loop against the numpy passes and the full-frame renderer."""

    @pytest.mark.parametrize("config, count", [(C4_SCENE, 334), (SceneConfig(), 334), (NEAR_SCENE, 334)],
                             ids=["criterion-4", "default", "near-no-background"])
    def test_same_bytes_on_generated_scenes(self, numpy_passes, config, count):
        before = compiled.runs()
        for seed in range(count):
            scene = generate_scene(_rng([30, seed]), config)
            args = (scene.poses, scene.occluders, scene.camera, config, SPEC)
            default, forced = _both_paths(numpy_passes, *args)
            assert default == forced == ref_render_clean_depth(*args).tobytes(), f"seed {seed}"
        assert compiled.runs() - before == {("render_clean", "the compiled C loop"): 2 * count,
                                            ("render_clean", FORCED): count}

    @pytest.mark.parametrize("case", ["box-behind-camera", "short-capsules", "no-poses", "occluders-only"])
    def test_same_bytes_on_edge_cases(self, numpy_passes, case):
        args = (*_edge_scene(case), SPEC)
        default, forced = _both_paths(numpy_passes, *args)
        assert default == forced == ref_render_clean_depth(*args).tobytes()

    @pytest.mark.parametrize("errstate, outcome", [
        ({}, "warn"), ({"over": "raise"}, "raise"), ({"over": "ignore"}, "quiet"),
    ])
    def test_an_overflow_obeys_errstate_on_both_paths(self, numpy_passes, errstate, outcome):
        """Every bone of this pose is a sphere about one point p with |p|^2
        finite, but for the rays near p, (d.p)^2 overflows.  Both paths go
        on to inf - inf, an invalid value that neither reports, as for a
        ray that misses."""
        pose = np.tile([0.28 * 1.27e154, 0.0, 1.27e154], (17, 1))
        with np.errstate(over="raise"):
            np.vecdot(pose, pose)

        def render():
            expect = {"raise": pytest.raises(FloatingPointError, match="^overflow encountered in "),
                      "warn": pytest.warns(RuntimeWarning, match="^overflow encountered in "),
                      "quiet": contextlib.nullcontext()}[outcome]
            with np.errstate(**errstate), expect:
                return render_clean_depth([pose], [], CAM, SceneConfig(), SPEC)

        default = render()
        with numpy_passes():
            forced = render()
        if outcome != "raise":
            assert default.tobytes() == forced.tobytes()

    @pytest.mark.parametrize("source, which, why", [
        (compiled._SOURCE, lambda name: None, r"no C compiler \(cc\) on PATH"),
        ("int render_clean(void) { return nope; }", shutil.which,
         r"cc failed with status 1: \S*loops\.c:1:\d+: error: .*nope.*"),
    ], ids=["no-cc", "cc-fails"])
    def test_a_failed_build_names_its_reason(self, monkeypatch, source, which, why):
        args = (*_edge_scene("short-capsules"), SPEC)
        expected = render_clean_depth(*args).tobytes()
        monkeypatch.setattr(compiled, "_library", None)
        monkeypatch.setattr(compiled, "_SOURCE", source)
        monkeypatch.setattr(shutil, "which", which)
        before = compiled.runs()
        assert render_clean_depth(*args).tobytes() == expected
        (((loop, path), frames),) = (compiled.runs() - before).items()
        assert loop == "render_clean" and re.fullmatch(rf"the numpy passes \({why}\)", path) and frames == 1


class TestArrayPassReferences:
    """The array passes against the per-bone and per-pair code they replaced."""

    def test_vecdot_rounds_as_per_row_dot(self):
        """np.vecdot on (n, 3) rows gives the bytes of one ``p.dot(q)`` per
        row, where an elementwise sum of products may round differently;
        the generator's bit-identity with the per-bone code rests on this."""
        rng = np.random.default_rng(20240)
        magnitude = 10.0 ** rng.uniform(-3.0, 4.0, size=(2, 20000, 1))
        a, b = rng.uniform(-1.0, 1.0, size=(2, 20000, 3)) * magnitude
        per_row = np.array([p.dot(q) for p, q in zip(a, b)])
        assert np.vecdot(a, b).tobytes() == per_row.tobytes()
        assert np.vecdot(a, a).tobytes() == np.array([p.dot(p) for p in a]).tobytes()

    @pytest.mark.parametrize("standing", [0.0, 1.0, 0.6])
    @pytest.mark.parametrize("jitter", [0.0, 8.0])
    def test_poses_equal_the_per_bone_generator(self, standing, jitter):
        """100 seeds per config (600 in all), yaw over the full circle."""
        config = SceneConfig(standing_probability=standing, joint_jitter_deg=jitter)
        assert config.yaw_range_deg == (-180.0, 180.0)
        for seed in range(100):
            rng, ref_rng = _rng([seed, 31]), _rng([seed, 31])
            for _ in range(2):
                assert generate_pose(rng, config).tobytes() == ref_generate_pose(ref_rng, config, SPEC).tobytes()
            assert rng.random() == ref_rng.random()  # both took the same draws

    def test_a_rejected_draw_is_redrawn_as_the_per_bone_generator_does(self):
        """At 1/1000 scale the knee-neck extent sits near the 1 mm floor,
        so the first draw from seed 0 is rejected."""
        config = SceneConfig(bone_scale_range=(0.0008, 0.0012))
        assert knee_neck_distance(ref_pose_draw(_rng(0), config, SPEC), SPEC) <= 1.0
        rng, ref_rng = _rng(0), _rng(0)
        assert generate_pose(rng, config).tobytes() == ref_generate_pose(ref_rng, config, SPEC).tobytes()
        assert rng.random() == ref_rng.random()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(occluder_frames())
    def test_occluder_masks_equal_the_per_pair_fold(self, frame):
        best, dx, dy, occluders = frame
        expected = best.copy()
        ref_fold_occluders(expected, dx, dy, occluders)
        folded = best.reshape(dy.size, dx.size).copy()
        _fold_occluders(folded, dx, dy, occluders)
        assert folded.tobytes() == expected.tobytes()

    def test_rectangle_edges_on_pixel_rays_are_hits(self):
        """Ray slopes k/4 meet z = 1000 at x = 250 k exactly, so the edges
        |x - cx| = 250 and |y - cy| = 250 fall on pixel rays."""
        dx = dy = np.arange(-4.0, 5.0) / 4.0
        occ = Occluder(center=np.array([0.0, 250.0, 1000.0]), half_width=250.0, half_height=250.0)
        expected = np.full(81, np.inf)
        ref_fold_occluders(expected, dx, dy, [occ])
        folded = np.full((9, 9), np.inf)
        _fold_occluders(folded, dx, dy, [occ])
        assert folded.tobytes() == expected.tobytes()
        assert np.array_equal(np.argwhere(folded == 1000.0), [[r, c] for r in (4, 5, 6) for c in (3, 4, 5)])

    def test_an_occluder_off_the_frame_leaves_it_unchanged(self):
        dx = (np.arange(160.0) - CAM.cx) / CAM.fx
        dy = (np.arange(120.0) - CAM.cy) / CAM.fy
        off = Occluder(center=np.array([dx[-1] * 2000.0 + 401.0, 0.0, 2000.0]), half_width=400.0, half_height=300.0)
        best = np.full((120, 160), np.inf)
        _fold_occluders(best, dx, dy, [off])
        assert np.isinf(best).all()


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
            pose = generate_pose(rng, config)
            for (parent, child), (lo_mm, hi_mm) in bounds.items():
                length = float(np.linalg.norm(pose[child] - pose[parent]))
                assert lo_mm <= length <= hi_mm, (parent, child, length)

    def test_knee_neck_extent_is_usable(self):
        config = SceneConfig()
        rng = _rng(1)
        for _ in range(300):
            assert knee_neck_distance(generate_pose(rng, config), SPEC) > 1.0

    def test_zero_jitter_unit_scale_frontal_reproduces_the_template(self):
        config = SceneConfig(joint_jitter_deg=0.0, bone_scale_range=(1.0, 1.0),
                             yaw_range_deg=(0.0, 0.0), standing_probability=1.0)
        pose = generate_pose(_rng(2), config)
        np.testing.assert_allclose(pose, _STANDING, rtol=0, atol=1e-9)


class TestGenerateScene:
    def test_counts_and_shapes(self):
        config = SceneConfig(persons_range=(2, 3), occluder_range=(1, 2))
        scene = generate_scene(_rng(3), config)
        assert 2 <= len(scene.poses) <= 3
        assert 1 <= len(scene.occluders) <= 2
        flags = _flags(scene, config)
        assert len(flags) == len(scene.poses)
        assert scene.depth.values.shape == (config.image_height, config.image_width)
        assert scene.clean.values.shape == (config.image_height, config.image_width)
        for pose, visible in zip(scene.poses, flags):
            assert pose.shape == (17, 3)
            assert visible.shape == (17,) and visible.dtype == bool
            assert (pose[:, 2] > config.min_scene_depth_mm).all()

    def test_out_of_frame_joints_are_flagged_occluded(self):
        config = SceneConfig()
        hit = 0
        for seed in range(10):
            scene = generate_scene(_rng(100 + seed), config)
            for pose, visible in zip(scene.poses, _flags(scene, config)):
                pix = project(pose, scene.camera)
                outside = (
                    (pix[:, 0] < 0.0) | (pix[:, 0] > scene.camera.width - 1)
                    | (pix[:, 1] < 0.0) | (pix[:, 1] > scene.camera.height - 1)
                )
                assert not visible[outside].any()
                hit += int(outside.sum())
        assert hit > 0  # the default config does produce clipped joints

    def test_occluder_depths_respect_the_fraction_range(self):
        config = SceneConfig(occluder_range=(2, 2), occluder_depth_fraction=(0.3, 0.5))
        for seed in range(5):
            scene = generate_scene(_rng(200 + seed), config)
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
        pose = generate_pose(_rng(4), config) + np.array([0.0, 0.0, 4000.0])
        occ = Occluder(center=np.array([0.0, -380.0, 2000.0]),
                       half_width=500.0, half_height=200.0)
        depth, clean = render_depth([pose], [occ], CAM, config, _rng(5))
        flags = _flags(Scene(camera=CAM, poses=[pose], occluders=[occ], depth=depth, clean=clean), config)[0]

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
        scene = generate_scene(rng, config)
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

    def test_visibility_is_the_margin_rule_on_the_clean_map(self):
        """A joint is visible when the noise-free map, read at its true
        projection, is nearer than its own depth by less than the margin;
        a readout that is invalid on the clean map hides the joint."""
        hidden = 0
        for seed in range(12):
            scene, config, rng = self._scene_and_config([seed, 41], persons_range=(1, 4), occluder_range=(0, 3))
            for sample, pose in zip(scene_to_samples(scene, config, rng, "f0"), scene.poses):
                clean = read_depth_at(scene.clean, project(pose, scene.camera))
                expected = clean.values > pose[:, 2] - config.visibility_margin_mm
                assert sample.eval_visibility.dtype == bool
                np.testing.assert_array_equal(sample.eval_visibility, expected)
                assert not sample.eval_visibility[~clean.valid].any()
                hidden += int((~expected).sum())
        assert hidden > 0

    @pytest.mark.parametrize("noise, holes", [(15.0, 0.01), (0.0, 0.5), (15.0, 0.0), (0.0, 0.0)])
    def test_clean_map_is_the_noise_free_render(self, noise, holes):
        """``clean`` holds the noise-free render's float32 bytes, also when
        the noise is off and the holes are written into the render's own
        array."""
        config = SceneConfig(sensor_noise_mm=noise, hole_probability=holes)
        scene = generate_scene(_rng(17), config)
        render = render_clean_depth(scene.poses, scene.occluders, scene.camera, config, SPEC)
        assert scene.clean.values.tobytes() == DepthMap(render).values.tobytes()
        if holes > 0.0:
            assert np.isnan(scene.depth.values).sum() > np.isnan(scene.clean.values).sum()

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
        dataset = generate_dataset(_rng(10), SceneConfig(), 5, 7)
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
        dataset = generate_dataset(_rng(11), SceneConfig(), 0, 4)
        assert not dataset.annotated
        assert len(dataset.weak) == 4

    @pytest.mark.parametrize("counts, message", [
        ((-1, 0), "n_annotated must be an int >= 0, got -1"),
        ((0, -1), "n_weak must be an int >= 0, got -1"),
        ((2.5, 0), "n_annotated must be an int >= 0, got 2.5"),
        ((0, 2.0), "n_weak must be an int >= 0, got 2.0"),
        ((True, 0), "n_annotated must be an int >= 0, got True"),
        ((0, np.int64(-3)), "n_weak must be an int >= 0, got np.int64(-3)"),
    ])
    def test_negative_counts_raise(self, counts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_dataset(_rng(12), SceneConfig(), *counts)

    def test_numpy_integer_counts(self):
        dataset = generate_dataset(_rng(12), SceneConfig(), np.int64(1), np.int32(1))
        assert (len(dataset.annotated), len(dataset.weak)) == (1, 1)

    def test_bit_identical_datasets_for_equal_seeds(self):
        a = generate_dataset(_rng(13), SceneConfig(), 4, 4)
        b = generate_dataset(_rng(13), SceneConfig(), 4, 4)
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
        a = generate_dataset(_rng(14), SceneConfig(), 2, 0)
        b = generate_dataset(_rng(15), SceneConfig(), 2, 0)
        assert not np.array_equal(a.annotated[0].joints_2d, b.annotated[0].joints_2d)


class TestPinnedDatasets:
    """The first scenes of the seed-0 criterion-4 and criterion-5
    training sets keep their bytes, on the default path and with the
    numpy passes forced."""

    @pytest.fixture(autouse=True, params=["default", "numpy"])
    def _path(self, request, numpy_passes):
        with numpy_passes() if request.param == "numpy" else contextlib.nullcontext():
            yield

    def test_criterion_4_scenes(self):
        dataset = generate_dataset(_rng([0, 100]), C4_SCENE, 12, 24)
        assert _dataset_digest(dataset) == C4_DIGEST

    def test_criterion_5_scenes(self):
        dataset = generate_dataset(_rng([0, 100]), C5_SCENE, 10, 20)
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
            scene = generate_scene(rng, config)
            clean = render_clean_depth(scene.poses, scene.occluders, scene.camera, config, SPEC)
            samples = scene_to_samples(scene, config, rng, f"f{seed}")
            for sample, pose in zip(samples, scene.poses):
                pix = project(pose, scene.camera)
                for j in range(17):
                    if not (sample.eval_visibility[j] and sample.depth_valid[j]):
                        continue
                    x0 = min(int(np.floor(pix[j, 0])), scene.camera.width - 2)
                    y0 = min(int(np.floor(pix[j, 1])), scene.camera.height - 2)
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
                scene = generate_scene(_rng([count, seed]), config)
                for visible in _flags(scene, config):
                    occluded += int((~visible).sum())
                    total += visible.size
            fractions.append(occluded / total)
        for a, b in zip(fractions, fractions[1:]):
            assert b >= a - 0.01
        assert fractions[-1] > fractions[0] + 0.03
