"""Synthetic RGB-D scenes: random posed bodies rendered into depth maps.

Bodies are unions of capsules around the bones of the built-in skeleton;
occluders are camera-facing rectangles placed between the camera and a
person.  Depth is ray-cast analytically per pixel (the stored value is
the z coordinate of the nearest hit, matching a time-of-flight sensor),
then corrupted with Gaussian noise and NaN holes.  Each primitive is
solved only over the pixels whose rays can meet its axis-aligned 3D
bounding box: in front of the camera, perspective projection maps the
box into the convex hull of its projected corners, so the window is
conservative and the map is the one a full-frame solve gives, byte for
byte.  Every random draw
comes from a per-scene stream, so datasets are reproducible and scenes
could be generated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import Dataset, Sample, fields_from_json
from .depth import DepthMap, read_depth_at
from .geometry import CameraIntrinsics, project
from .skeleton import DEFAULT_JOINT_NAMES, SkeletonSpec, default_skeleton, knee_neck_distance


@dataclass(frozen=True)
class SceneConfig:
    image_width: int = 160
    image_height: int = 120
    fx_range: tuple[float, float] = (220.0, 300.0)
    fy_jitter: float = 0.02
    principal_jitter: float = 0.05
    persons_range: tuple[int, int] = (1, 4)
    root_depth_range: tuple[float, float] = (2000.0, 7000.0)
    root_margin: float = 0.25
    standing_probability: float = 0.6
    bone_scale_range: tuple[float, float] = (0.85, 1.15)
    joint_jitter_deg: float = 8.0
    yaw_range_deg: tuple[float, float] = (-180.0, 180.0)
    occluder_range: tuple[int, int] = (0, 3)
    occluder_size_range: tuple[float, float] = (200.0, 700.0)
    occluder_depth_fraction: tuple[float, float] = (0.45, 0.8)
    background_depth: float | None = 9000.0
    sensor_noise_mm: float = 15.0
    hole_probability: float = 0.01
    detector_noise_px: float = 2.0
    visibility_margin_mm: float = 50.0
    min_scene_depth_mm: float = 300.0

    def __post_init__(self) -> None:
        if self.image_width <= 1 or self.image_height <= 1:
            raise ValueError("image must be at least 2x2 pixels")
        for name in ("fx_range", "root_depth_range", "bone_scale_range", "occluder_size_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
        for name in ("persons_range", "occluder_range"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                raise ValueError(f"{name} must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
        if self.yaw_range_deg[0] > self.yaw_range_deg[1]:
            raise ValueError("yaw_range_deg must satisfy lo <= hi")
        lo, hi = self.occluder_depth_fraction
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError("occluder_depth_fraction must satisfy 0 < lo <= hi < 1")
        if self.persons_range[0] < 1:
            raise ValueError("persons_range must allow at least one person")
        if self.sensor_noise_mm < 0 or self.detector_noise_px < 0:
            raise ValueError("noise levels must be >= 0")
        if not 0.0 <= self.hole_probability < 1.0:
            raise ValueError("hole_probability must be in [0, 1)")
        if self.visibility_margin_mm <= 0:
            raise ValueError("visibility_margin_mm must be > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        """The config with the fields in ``d`` (parsed JSON) over the defaults."""
        return fields_from_json(cls, {**asdict(cls()), **d})


# Rest poses with the hip at the origin; x right, y down, z toward the
# camera's far side.  Units mm.
_STANDING = np.array([
    [0.0, -760.0, 0.0],      # head_top
    [0.0, -520.0, 0.0],      # neck
    [-175.0, -490.0, 0.0],   # right_shoulder
    [-215.0, -210.0, 0.0],   # right_elbow
    [-235.0, 40.0, 0.0],     # right_wrist
    [175.0, -490.0, 0.0],    # left_shoulder
    [215.0, -210.0, 0.0],    # left_elbow
    [235.0, 40.0, 0.0],      # left_wrist
    [-95.0, 40.0, 0.0],      # right_hip
    [-105.0, 470.0, 0.0],    # right_knee
    [-110.0, 890.0, 0.0],    # right_ankle
    [95.0, 40.0, 0.0],       # left_hip
    [105.0, 470.0, 0.0],     # left_knee
    [110.0, 890.0, 0.0],     # left_ankle
    [0.0, 0.0, 0.0],         # hip
    [0.0, -260.0, 0.0],      # spine
    [0.0, -640.0, 0.0],      # head
])

_SITTING = np.array([
    [0.0, -745.0, -120.0],
    [0.0, -510.0, -80.0],
    [-175.0, -480.0, -80.0],
    [-215.0, -200.0, -60.0],
    [-235.0, 40.0, -40.0],
    [175.0, -480.0, -80.0],
    [215.0, -200.0, -60.0],
    [235.0, 40.0, -40.0],
    [-95.0, 30.0, 0.0],
    [-105.0, 60.0, -420.0],
    [-110.0, 480.0, -460.0],
    [95.0, 30.0, 0.0],
    [105.0, 60.0, -420.0],
    [110.0, 480.0, -460.0],
    [0.0, 0.0, 0.0],
    [0.0, -255.0, -40.0],
    [0.0, -630.0, -100.0],
])

# Capsule radius of the bone ending at each joint (mm).  All radii stay
# below the visibility margin so a joint is never flagged occluded by
# the surface of its own body part.
_BONE_RADII = {
    "head_top": 45.0,
    "neck": 45.0,
    "right_shoulder": 38.0,
    "right_elbow": 35.0,
    "right_wrist": 33.0,
    "left_shoulder": 38.0,
    "left_elbow": 35.0,
    "left_wrist": 33.0,
    "right_hip": 45.0,
    "right_knee": 42.0,
    "right_ankle": 38.0,
    "left_hip": 45.0,
    "left_knee": 42.0,
    "left_ankle": 38.0,
    "spine": 48.0,
    "head": 42.0,
}


@dataclass
class Occluder:
    """A camera-facing rectangle at constant depth."""

    center: np.ndarray  # (3,) mm
    half_width: float
    half_height: float


@dataclass
class Scene:
    camera: CameraIntrinsics
    width: int
    height: int
    poses: list[np.ndarray]
    visibility: list[np.ndarray]
    occluders: list[Occluder]
    depth: DepthMap


def _require_default_skeleton(spec: SkeletonSpec) -> None:
    if spec.joint_names != DEFAULT_JOINT_NAMES:
        raise ValueError("the synthetic generator only knows the built-in 17-joint skeleton")


def _rotate(v: np.ndarray, axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation of v around a unit axis."""
    c, s = math.cos(angle), math.sin(angle)
    (a0, a1, a2), (v0, v1, v2) = axis.tolist(), v.tolist()
    # np.cross's arithmetic on Python floats: the same bits, without its
    # per-call overhead on 3-vectors.
    cross = np.array([a1 * v2 - a2 * v1, a2 * v0 - a0 * v2, a0 * v1 - a1 * v0])
    return v * c + cross * s + axis * np.dot(axis, v) * (1.0 - c)


def _tree_order(spec: SkeletonSpec) -> list[int]:
    order = [spec.root]
    seen = {spec.root}
    while len(order) < spec.num_joints:
        for child, parent in enumerate(spec.parents):
            if child not in seen and parent in seen:
                order.append(child)
                seen.add(child)
    return order


def generate_pose(rng: np.random.Generator, config: SceneConfig, spec: SkeletonSpec) -> np.ndarray:
    """A random body pose with the hip at the origin.

    Starts from a standing or sitting rest pose rotated by a random yaw,
    then rebuilds the kinematic tree bone by bone with jittered
    directions and bone lengths scaled inside ``bone_scale_range``, so
    every generated bone stays within its anthropometric bounds.
    """
    _require_default_skeleton(spec)
    sigma = math.radians(config.joint_jitter_deg)
    order = _tree_order(spec)[1:]
    while True:
        template = _STANDING if rng.random() < config.standing_probability else _SITTING
        yaw = math.radians(rng.uniform(*config.yaw_range_deg))
        c, s = math.cos(yaw), math.sin(yaw)
        rot_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        template = template @ rot_y.T

        pose = np.zeros_like(template)
        for child in order:
            parent = spec.parents[child]
            bone = template[child] - template[parent]
            length = float(np.linalg.norm(bone))
            direction = bone / length
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = float(np.clip(rng.normal(0.0, sigma), -2.5 * sigma, 2.5 * sigma))
            direction = _rotate(direction, axis, angle)
            scale = rng.uniform(*config.bone_scale_range)
            pose[child] = pose[parent] + direction * (length * scale)
        if knee_neck_distance(pose, spec) > 1.0:  # reject collapsed draws
            return pose


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


def _body_capsules(pose: np.ndarray, spec: SkeletonSpec) -> list[tuple[np.ndarray, np.ndarray, float]]:
    return [
        (pose[parent], pose[child], _BONE_RADII[spec.joint_names[child]])
        for parent, child in spec.bones()
    ]


def _ray_span(rays: np.ndarray, lo: float, hi: float) -> slice:
    """Indices of the sorted ray slopes in [lo, hi], padded by one each side."""
    start = max(int(np.searchsorted(rays, lo)) - 1, 0)
    return slice(start, int(np.searchsorted(rays, hi, side="right")) + 1)


def _pixel_window(lo: np.ndarray, hi: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> tuple[slice, slice]:
    """Rows and columns of the pixels whose rays can meet the box [lo, hi]:
    the whole frame when the box reaches z <= 0 (see render_clean_depth)."""
    if lo[2] <= 0.0:
        return slice(None), slice(None)
    xs = (lo[0] / lo[2], lo[0] / hi[2], hi[0] / lo[2], hi[0] / hi[2])
    ys = (lo[1] / lo[2], lo[1] / hi[2], hi[1] / lo[2], hi[1] / hi[2])
    return _ray_span(dy, min(ys), max(ys)), _ray_span(dx, min(xs), max(xs))


def render_clean_depth(
    poses: list[np.ndarray],
    occluders: list[Occluder],
    cam: CameraIntrinsics,
    config: SceneConfig,
    spec: SkeletonSpec,
) -> np.ndarray:
    """Noise-free z-depth per pixel, NaN where no surface returns.

    Each capsule and occluder is solved only over the pixel window of its
    axis-aligned 3D bounding box, padded by one pixel against rounding.
    The window is conservative: a ray (dx, dy, 1) meets a point p only
    where dx = p_x / p_z and dy = p_y / p_z, and for a box in front of the
    camera p_x / p_z is monotone in p_x and in p_z, so over the box it
    spans the range of its corner values (likewise y).  A box reaching
    z <= 0 gets the whole frame.  Every per-pixel quantity is elementwise,
    so each pixel gets the bytes a whole-frame solve gives it.
    """
    _require_default_skeleton(spec)
    dx = (np.arange(config.image_width, dtype=np.float64) - cam.cx) / cam.fx
    dy = (np.arange(config.image_height, dtype=np.float64) - cam.cy) / cam.fy
    best = np.full((config.image_height, config.image_width), np.inf)

    def solve(lo, hi, depth_fn, *args):
        rows, cols = _pixel_window(lo, hi, dx, dy)
        window = best[rows, cols]
        np.minimum(window, depth_fn(dx[None, cols], dy[rows, None], *args), out=window)

    for pose in poses:
        for a, b, radius in _body_capsules(pose, spec):
            solve(np.minimum(a, b) - radius, np.maximum(a, b) + radius, _capsule_depth, a, b, radius)
    for occ in occluders:
        half = np.array([occ.half_width, occ.half_height, 0.0])
        solve(occ.center - half, occ.center + half, _occluder_depth, occ)
    if config.background_depth is not None:
        best = np.minimum(best, config.background_depth)
    return np.where(np.isfinite(best), best, np.nan)


def _joint_visibility(
    poses: list[np.ndarray],
    clean: np.ndarray,
    cam: CameraIntrinsics,
    config: SceneConfig,
) -> list[np.ndarray]:
    """A joint is visible when the surface in front of it is no more than
    the visibility margin nearer than the joint itself (its own body
    shell is thinner than the margin) and it projects inside the image."""
    height, width = clean.shape
    clean_map = DepthMap(width, height, clean)
    flags = []
    for pose in poses:
        pix = project(pose, cam)
        readout = read_depth_at(clean_map, pix)
        visible = readout.valid & (readout.values > pose[:, 2] - config.visibility_margin_mm)
        flags.append(visible)
    return flags


def render_depth(
    poses: list[np.ndarray],
    occluders: list[Occluder],
    cam: CameraIntrinsics,
    config: SceneConfig,
    spec: SkeletonSpec,
    rng: np.random.Generator,
) -> tuple[DepthMap, list[np.ndarray]]:
    """Render a scene to a sensor-like depth map plus per-joint visibility.

    Visibility is decided on the noise-free rendering; the returned map
    adds Gaussian sensor noise and NaN holes.
    """
    clean = render_clean_depth(poses, occluders, cam, config, spec)
    visibility = _joint_visibility(poses, clean, cam, config)
    noisy = clean
    if config.sensor_noise_mm > 0.0:
        noise = rng.normal(0.0, config.sensor_noise_mm, size=clean.shape)
        noisy = np.where(np.isfinite(clean), np.maximum(clean + noise, 1.0), np.nan)
    if config.hole_probability > 0.0:
        holes = rng.random(clean.shape) < config.hole_probability
        noisy = np.where(holes, np.nan, noisy)
    return DepthMap(config.image_width, config.image_height, noisy), visibility


def _sample_camera(rng: np.random.Generator, config: SceneConfig) -> CameraIntrinsics:
    fx = rng.uniform(*config.fx_range)
    fy = fx * rng.uniform(1.0 - config.fy_jitter, 1.0 + config.fy_jitter)
    cx = config.image_width / 2.0 + rng.uniform(-1.0, 1.0) * config.principal_jitter * config.image_width
    cy = config.image_height / 2.0 + rng.uniform(-1.0, 1.0) * config.principal_jitter * config.image_height
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy)


def _place_pose(
    rng: np.random.Generator,
    config: SceneConfig,
    cam: CameraIntrinsics,
    pose: np.ndarray,
) -> np.ndarray | None:
    """Translate a hip-centered pose so its root projects inside the image.

    Returns None when the placement leaves geometry too close to the
    camera, in which case the caller retries with a fresh draw.
    """
    z = rng.uniform(*config.root_depth_range)
    u = rng.uniform(config.root_margin * config.image_width, (1.0 - config.root_margin) * config.image_width)
    v = rng.uniform(config.root_margin * config.image_height, (1.0 - config.root_margin) * config.image_height)
    root = np.array([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z])
    placed = pose + root
    if placed[:, 2].min() <= config.min_scene_depth_mm:
        return None
    return placed


def generate_scene(rng: np.random.Generator, config: SceneConfig, spec: SkeletonSpec) -> Scene:
    _require_default_skeleton(spec)
    cam = _sample_camera(rng, config)
    n_persons = int(rng.integers(config.persons_range[0], config.persons_range[1] + 1))
    poses = []
    for _ in range(n_persons):
        placed = None
        for _attempt in range(100):
            placed = _place_pose(rng, config, cam, generate_pose(rng, config, spec))
            if placed is not None:
                break
        if placed is None:
            raise RuntimeError("could not place a person in front of the camera")
        poses.append(placed)

    occluders = []
    n_occluders = int(rng.integers(config.occluder_range[0], config.occluder_range[1] + 1))
    for _ in range(n_occluders):
        target_pose = poses[int(rng.integers(len(poses)))]
        joint = target_pose[int(rng.integers(target_pose.shape[0]))]
        z_joint = float(joint[2])
        frac_lo, frac_hi = config.occluder_depth_fraction
        z_lo = max(500.0, frac_lo * z_joint)
        z_occ = rng.uniform(z_lo, max(frac_hi * z_joint, z_lo))
        center = joint * (z_occ / z_joint)  # on the camera ray through the joint
        center = center + np.array([rng.uniform(-150.0, 150.0), rng.uniform(-150.0, 150.0), 0.0])
        half_w = rng.uniform(*config.occluder_size_range) / 2.0
        half_h = rng.uniform(*config.occluder_size_range) / 2.0
        occluders.append(Occluder(center=center, half_width=half_w, half_height=half_h))

    depth, visibility = render_depth(poses, occluders, cam, config, spec, rng)
    return Scene(
        camera=cam,
        width=config.image_width,
        height=config.image_height,
        poses=poses,
        visibility=visibility,
        occluders=occluders,
        depth=depth,
    )


def scene_to_samples(scene: Scene, config: SceneConfig, rng: np.random.Generator, frame_id: str) -> list[Sample]:
    """One sample per person: noisy 2D detections plus cached depth readouts.

    Readouts are taken at the true joint projections, so their error is
    bounded by sensor noise plus the interpolation footprint; only the
    2D keypoints carry the simulated detector error.
    """
    samples = []
    for pose, visible in zip(scene.poses, scene.visibility):
        joints_2d = project(pose, scene.camera)
        readout = read_depth_at(scene.depth, joints_2d)
        if config.detector_noise_px > 0.0:
            joints_2d = joints_2d + rng.normal(0.0, config.detector_noise_px, size=joints_2d.shape)
        sample = Sample(
            frame_id=frame_id,
            camera=scene.camera,
            width=scene.width,
            height=scene.height,
            joints_2d=joints_2d,
            joints_3d=pose.copy(),
            depth=scene.depth,
            depth_readouts=readout.values.copy(),
            depth_valid=readout.valid.copy(),
            eval_joints_3d=pose.copy(),
            eval_visibility=visible.copy(),
        )
        samples.append(sample)
    return samples


def generate_dataset(
    rng: np.random.Generator,
    config: SceneConfig,
    n_annotated: int,
    n_weak: int,
    spec: SkeletonSpec | None = None,
) -> Dataset:
    """Generate scenes until the two sample pools are full.

    Weak samples keep their depth map but lose the 3D pose annotation
    (it moves to the evaluation-only fields).  Each scene is rendered
    from its own child random stream seeded off the master generator.
    """
    spec = spec or default_skeleton()
    _require_default_skeleton(spec)
    if n_annotated < 0 or n_weak < 0:
        raise ValueError("sample counts must be >= 0")
    annotated: list[Sample] = []
    weak: list[Sample] = []
    scene_index = 0
    while len(annotated) < n_annotated or len(weak) < n_weak:
        child = np.random.Generator(np.random.Philox(int(rng.integers(2**63))))
        scene = generate_scene(child, config, spec)
        frame_id = f"scene{scene_index:06d}"
        scene_index += 1
        for sample in scene_to_samples(scene, config, child, frame_id):
            if len(annotated) < n_annotated:
                annotated.append(sample)
            elif len(weak) < n_weak:
                sample.joints_3d = None
                weak.append(sample)
    return Dataset(annotated=annotated, weak=weak)
