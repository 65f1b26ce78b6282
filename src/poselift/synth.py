"""Synthetic RGB-D scenes: random posed bodies rendered into depth maps.

Bodies are unions of capsules around the bones of the built-in 17-joint
skeleton, the only one the generator draws, so its functions take no
skeleton argument (``render_clean_depth`` keeps its ``spec``, checked to
be that skeleton, only while the benchmark harness, ``bench/tracing.py``,
reads it as the fifth argument to count capsules); occluders are
camera-facing rectangles placed between the camera and a
person.  Depth is ray-cast analytically per pixel (the stored value is
the z coordinate of the nearest hit, matching a time-of-flight sensor),
then corrupted with Gaussian noise and NaN holes.  After the per-capsule
dot products, a frame is rendered by one call of the ``render_clean``
loop of :mod:`poselift.compiled`, which solves each capsule only over
the pixels whose rays can meet its axis-aligned 3D bounding box: in
front of the camera, perspective projection maps the box into the
convex hull of its projected corners, so the window is conservative.
The map is the one a full-frame solve of one primitive after another
gives, byte for byte.  A pose is built for all 16 bones at once, with
the bits of a bone-by-bone build.  Every random draw comes from a
per-scene stream, so datasets are reproducible; processes paid only at
large sizes (0.75x at 48 samples, 1.42x at 2,200), and on threads the
Python and numpy part of generation holds the GIL, so a second thread
gained nothing (README, "Threads").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import compiled
from .checks import check_fields, fields_from_json, finite, fits, type_rules
from .data import Dataset, Sample
from .depth import DepthMap, read_depth_at
from .geometry import CameraIntrinsics, project
from .skeleton import DEFAULT_JOINT_NAMES, DEFAULT_PARENTS, SkeletonSpec, default_skeleton, knee_neck_distance


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
        check_fields(self, type_rules(self))
        lo, hi = self.occluder_depth_fraction
        check_fields(self, [
            *((f.name, finite(getattr(self, f.name)), "finite") for f in fields(self)),
            *((name, 0 < getattr(self, name)[0] <= getattr(self, name)[1], "(lo, hi) with 0 < lo <= hi")
              for name in ("fx_range", "root_depth_range", "bone_scale_range", "occluder_size_range")),
            ("image_width", self.image_width >= 2, ">= 2"),
            ("image_height", self.image_height >= 2, ">= 2"),
            ("yaw_range_deg", self.yaw_range_deg[0] <= self.yaw_range_deg[1], "(lo, hi) with lo <= hi"),
            ("occluder_depth_fraction", 0.0 < lo <= hi < 1.0, "(lo, hi) with 0 < lo <= hi < 1"),
            ("persons_range", 1 <= self.persons_range[0] <= self.persons_range[1], "(lo, hi) with 1 <= lo <= hi"),
            ("occluder_range", 0 <= self.occluder_range[0] <= self.occluder_range[1], "(lo, hi) with 0 <= lo <= hi"),
            ("sensor_noise_mm", self.sensor_noise_mm >= 0.0, ">= 0"),
            ("detector_noise_px", self.detector_noise_px >= 0.0, ">= 0"),
            ("hole_probability", 0.0 <= self.hole_probability < 1.0, "in [0, 1)"),
            ("visibility_margin_mm", self.visibility_margin_mm > 0.0, "> 0"),
            ("standing_probability", 0.0 <= self.standing_probability <= 1.0, "in [0, 1]"),
            ("fy_jitter", 0.0 <= self.fy_jitter < 1.0, "in [0, 1)"),
            ("root_margin", 0.0 <= self.root_margin <= 0.5, "in [0, 0.5]"),
            ("background_depth", self.background_depth is None or self.background_depth > 0.0, "null or > 0"),
            ("principal_jitter", 0.0 <= self.principal_jitter <= 0.5, "in [0, 0.5]"),
            ("min_scene_depth_mm", 0.0 < self.min_scene_depth_mm < self.root_depth_range[1],
             f"> 0 and below root_depth_range[1] = {self.root_depth_range[1]!r}"),
        ])

    @classmethod
    def from_dict(cls, d: dict) -> "SceneConfig":
        """The config with the fields in ``d`` (parsed JSON) over the defaults."""
        return fields_from_json(cls, d, defaults=True)


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
    """A frame's sensor map ``depth`` and noise-free map ``clean``."""

    camera: CameraIntrinsics
    poses: list[np.ndarray]
    occluders: list[Occluder]
    depth: DepthMap
    clean: DepthMap


def _tree_order(spec: SkeletonSpec) -> list[int]:
    order = [spec.root]
    seen = {spec.root}
    while len(order) < spec.num_joints:
        for child, parent in enumerate(spec.parents):
            if child not in seen and parent in seen:
                order.append(child)
                seen.add(child)
    return order


# The one skeleton the generator draws, and its bones, one per child
# joint, in the order generate_pose draws them (every parent before its
# children), with the capsule radius of each.
_SPEC = default_skeleton()
_CHILDREN = np.array(_tree_order(_SPEC)[1:])
_PARENTS = np.array(DEFAULT_PARENTS)[_CHILDREN]
_RADII = np.array([_BONE_RADII[DEFAULT_JOINT_NAMES[child]] for child in _CHILDREN])


def generate_pose(rng: np.random.Generator, config: SceneConfig) -> np.ndarray:
    """A random body pose with the hip at the origin.

    Starts from a standing or sitting rest pose rotated by a random yaw,
    then rebuilds the kinematic tree with jittered bone directions and
    bone lengths scaled inside ``bone_scale_range``, so every generated
    bone stays within its anthropometric bounds.

    The draws are taken bone by bone in tree order: four standard
    normals (the jitter axis, then the angle's normal; the stream of
    ``normal(size=3)`` followed by ``normal(0, sigma)``) and the scale.
    Everything else is (16, 3) array arithmetic with the per-element
    formulas of a one-bone-at-a-time Rodrigues rotation: 3-vector dot
    products as ``np.vecdot`` (the bits of per-row ``.dot``), ``math.cos``
    and ``math.sin`` per bone, and ``(axis * dot) * (1 - c)`` in that
    order, so each pose has the bits of the per-bone loop.
    """
    sigma = math.radians(config.joint_jitter_deg)
    normals = np.empty((_CHILDREN.size, 4))
    scale = np.empty(_CHILDREN.size)
    while True:
        template = _STANDING if rng.random() < config.standing_probability else _SITTING
        yaw = math.radians(rng.uniform(*config.yaw_range_deg))
        c, s = math.cos(yaw), math.sin(yaw)
        rot_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
        template = template @ rot_y.T
        for i in range(_CHILDREN.size):
            rng.standard_normal(out=normals[i])
            scale[i] = rng.uniform(*config.bone_scale_range)

        bone = template[_CHILDREN] - template[_PARENTS]
        length = np.sqrt(np.vecdot(bone, bone))
        v = bone / length[:, None]
        axis = normals[:, :3] / np.sqrt(np.vecdot(normals[:, :3], normals[:, :3]))[:, None]
        angle = np.clip(normals[:, 3] * sigma, -2.5 * sigma, 2.5 * sigma).tolist()
        cos = np.array([math.cos(a) for a in angle])[:, None]
        sin = np.array([math.sin(a) for a in angle])[:, None]
        (a0, a1, a2), (v0, v1, v2) = axis.T, v.T
        cross = np.stack([a1 * v2 - a2 * v1, a2 * v0 - a0 * v2, a0 * v1 - a1 * v0], axis=1)
        direction = v * cos + cross * sin + axis * np.vecdot(axis, v)[:, None] * (1.0 - cos)
        step = direction * (length * scale)[:, None]

        pose = np.zeros_like(template)
        for child, parent, bone_step in zip(_CHILDREN.tolist(), _PARENTS.tolist(), step):
            pose[child] = pose[parent] + bone_step
        if knee_neck_distance(pose, _SPEC) > 1.0:  # reject collapsed draws
            return pose


def _capsule_products(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """The length, |a|^2, |b|^2, unit axis (zero below 1e-9 mm) and a . axis
    of each capsule a[k]-b[k], its dot products as ``np.vecdot``."""
    m = b - a
    length = np.sqrt(np.vecdot(m, m))
    a_sq, b_sq = np.vecdot(a, a), np.vecdot(b, b)
    solid = length >= 1e-9
    axis = np.zeros_like(m)
    axis[solid] = m[solid] / length[solid, None]
    return length, a_sq, b_sq, axis, np.vecdot(a, axis)


def render_clean_depth(
    poses: list[np.ndarray],
    occluders: list[Occluder],
    cam: CameraIntrinsics,
    config: SceneConfig,
    spec: SkeletonSpec,
) -> np.ndarray:
    """Noise-free z-depth per camera pixel, NaN where no surface returns.
    ``poses`` must be finite (17, 3) arrays; else ValueError.

    Each capsule's cylindrical body and two sphere caps are solved as
    quadratics; only entry points count (the camera sits outside), and a
    capsule shorter than 1e-9 mm is the sphere at its ``a`` end alone.
    Rays are (dx, dy, 1), so the ray parameter equals the hit's z.  The
    per-capsule dot products are ``np.vecdot``, which rounds as a
    one-capsule ``x.dot(y)`` does; an elementwise sum may round
    differently.  The compiled loop (module docstring) runs everything
    after them.  It solves a capsule only over the pixel window of its
    axis-aligned 3D bounding box, padded by one pixel against rounding.
    The window is conservative: a ray (dx, dy, 1) meets a point p only
    where dx = p_x / p_z and dy = p_y / p_z, and for a box in front of the
    camera p_x / p_z is monotone in p_x and in p_z, so over the box it
    spans the range of its corner values (likewise y).  A box reaching
    z <= 0 gets the whole frame.  A pixel's depth from a capsule depends
    only on its ray and the capsule's scalars, and no depth is NaN, so
    folding by minimum gives each pixel the bytes that a whole-frame solve
    of one primitive after another gives it.  Each occluder then lowers
    the pixels whose row and column both meet it.

    The loop raises or warns per ``np.errstate`` for an overflow or
    underflow once the frame is done; the invalid values and zero
    divisions of rays that miss are not reported.  Where the loop does not
    build, this raises RuntimeError (:func:`compiled.loop`).
    :func:`compiled.runs` counts the frames rendered.
    """
    if spec.joint_names != DEFAULT_JOINT_NAMES:
        raise ValueError("the synthetic generator only knows the built-in 17-joint skeleton")
    joints = np.stack(poses).astype(np.float64, copy=False) if poses else np.empty((0, 17, 3))
    if joints.shape[1:] != (17, 3):
        raise ValueError(f"poses must be (17, 3) arrays, got {joints.shape[1:]}")
    if not np.isfinite(joints).all():
        raise ValueError("poses must be finite")
    a, b = joints[:, _PARENTS].reshape(-1, 3), joints[:, _CHILDREN].reshape(-1, 3)
    radii = np.tile(_RADII, len(poses))
    render = compiled.loop("render_clean")
    # Every array the loop reads or writes is a local, alive until it returns.
    capsules = (a, b, radii, *_capsule_products(a, b))
    boxes = np.array([(*occ.center, occ.half_width, occ.half_height) for occ in occluders],
                     dtype=np.float64).reshape(-1, 5)
    best, rays = np.empty((cam.height, cam.width)), np.empty(cam.width + cam.height)
    background = math.inf if config.background_depth is None else config.background_depth
    raised = render(best.ctypes.data, rays.ctypes.data, cam.width, cam.height, *cam.row,
                    radii.size, *(x.ctypes.data for x in capsules), len(boxes), boxes.ctypes.data, background)
    compiled.report(raised, "render_clean_depth")
    return best


def render_depth(
    poses: list[np.ndarray],
    occluders: list[Occluder],
    cam: CameraIntrinsics,
    config: SceneConfig,
    rng: np.random.Generator,
) -> tuple[DepthMap, DepthMap]:
    """Render a scene to a sensor-like depth map and its noise-free map.

    The sensor map adds Gaussian sensor noise and NaN holes to the
    noise-free one, on which ``scene_to_samples`` decides visibility.
    """
    clean = render_clean_depth(poses, occluders, cam, config, _SPEC)
    clean_map = DepthMap(clean)  # a float32 copy, taken before the noise below
    noisy = clean  # rendered for this call alone, so written in place below
    if config.sensor_noise_mm > 0.0:
        noisy = rng.standard_normal(clean.shape) * config.sensor_noise_mm
        noisy += clean  # NaN where no surface returns
        np.maximum(noisy, 1.0, out=noisy)
    if config.hole_probability > 0.0:
        np.copyto(noisy, np.nan, where=rng.random(clean.shape) < config.hole_probability)
    return DepthMap(noisy), clean_map


def _sample_camera(rng: np.random.Generator, config: SceneConfig) -> CameraIntrinsics:
    fx = rng.uniform(*config.fx_range)
    fy = fx * rng.uniform(1.0 - config.fy_jitter, 1.0 + config.fy_jitter)
    cx = config.image_width / 2.0 + rng.uniform(-1.0, 1.0) * config.principal_jitter * config.image_width
    cy = config.image_height / 2.0 + rng.uniform(-1.0, 1.0) * config.principal_jitter * config.image_height
    return CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, width=config.image_width, height=config.image_height)


def _place_pose(
    rng: np.random.Generator,
    config: SceneConfig,
    cam: CameraIntrinsics,
    pose: np.ndarray,
) -> np.ndarray | None:
    """Translate a hip-centered pose so its root projects inside the image,
    back-projected in scalar arithmetic (a numpy call per attempt measured
    slower).  Returns None when the placement leaves geometry too close to
    the camera, in which case the caller retries with a fresh draw.
    """
    z = rng.uniform(*config.root_depth_range)
    u = rng.uniform(config.root_margin * cam.width, (1.0 - config.root_margin) * cam.width)
    v = rng.uniform(config.root_margin * cam.height, (1.0 - config.root_margin) * cam.height)
    root = np.array([(u - cam.cx) / cam.fx * z, (v - cam.cy) / cam.fy * z, z])
    placed = pose + root
    if placed[:, 2].min() <= config.min_scene_depth_mm:
        return None
    return placed


def generate_scene(rng: np.random.Generator, config: SceneConfig) -> Scene:
    cam = _sample_camera(rng, config)
    n_persons = int(rng.integers(config.persons_range[0], config.persons_range[1] + 1))
    poses = []
    for _ in range(n_persons):
        placed = None
        for _attempt in range(100):
            placed = _place_pose(rng, config, cam, generate_pose(rng, config))
            if placed is not None:
                break
        if placed is None:
            raise ValueError(f"could not place a person: no root depth in root_depth_range={config.root_depth_range!r} "
                             f"kept the body beyond min_scene_depth_mm={config.min_scene_depth_mm!r}")
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

    depth, clean = render_depth(poses, occluders, cam, config, rng)
    return Scene(camera=cam, poses=poses, occluders=occluders, depth=depth, clean=clean)


def scene_to_samples(scene: Scene, config: SceneConfig, rng: np.random.Generator, frame_id: str) -> list[Sample]:
    """One sample per person: noisy 2D detections plus cached depth readouts.

    The frame's joints are projected once, and both maps are read at
    these true projections.  The sensor map gives the readouts, so their
    error is bounded by sensor noise plus the interpolation footprint;
    only the 2D keypoints carry the simulated detector error.  The
    noise-free map gives the eval-only visibility: a joint is visible
    when it projects inside the image and the surface in front of it is
    no more than the visibility margin nearer than the joint itself (its
    own body shell is thinner than the margin).
    """
    if not scene.poses:
        return []
    joints = np.stack(scene.poses)
    joints_2d = project(joints, scene.camera)
    readouts = read_depth_at(scene.depth, joints_2d).values  # NaN where invalid
    # An invalid readout is NaN, and NaN compares false: the joint is hidden.
    visible = read_depth_at(scene.clean, joints_2d).values > joints[..., 2] - config.visibility_margin_mm
    samples = []
    for i, pose in enumerate(scene.poses):
        detections = joints_2d[i].copy()
        if config.detector_noise_px > 0.0:
            detections += rng.normal(0.0, config.detector_noise_px, size=detections.shape)
        samples.append(Sample(
            frame_id=frame_id, camera=scene.camera, joints_2d=detections, joints_3d=pose.copy(),
            depth=scene.depth, depth_readouts=readouts[i],
            eval_joints_3d=pose.copy(), eval_visibility=visible[i].copy()))
    return samples


def generate_dataset(
    rng: np.random.Generator,
    config: SceneConfig,
    n_annotated: int,
    n_weak: int,
) -> Dataset:
    """Generate scenes until the two sample pools are full.

    Weak samples keep their depth map but lose the 3D pose annotation
    (it moves to the evaluation-only fields).  Each scene is rendered
    from its own child random stream seeded off the master generator.
    A count that is not an integer >= 0, by the rule an ``int`` config
    field has (:func:`checks.fits`), raises ValueError naming it.
    """
    for name, count in (("n_annotated", n_annotated), ("n_weak", n_weak)):
        if not (fits(count, "int") and count >= 0):
            raise ValueError(f"{name} must be an int >= 0, got {count!r}")
    annotated: list[Sample] = []
    weak: list[Sample] = []
    scene_index = 0
    while len(annotated) < n_annotated or len(weak) < n_weak:
        child = np.random.Generator(np.random.Philox(int(rng.integers(2**63))))
        scene = generate_scene(child, config)
        frame_id = f"scene{scene_index:06d}"
        scene_index += 1
        for sample in scene_to_samples(scene, config, child, frame_id):
            if len(annotated) < n_annotated:
                annotated.append(sample)
            elif len(weak) < n_weak:
                sample.joints_3d = None
                weak.append(sample)
    return Dataset(annotated=annotated, weak=weak)
