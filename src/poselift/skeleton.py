"""Skeleton layout, the root/relative pose vector and height normalization.

Poses are (J, 3) arrays of camera-frame millimeter coordinates.  The
default layout has 17 joints, rooted at the hip (pelvis), with a
14-joint subset of reliably visible joints used for depth supervision.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checks import check_fields, fields_from_json, type_rules
from .files import rewrite

DEFAULT_JOINT_NAMES = (
    "head_top",
    "neck",
    "right_shoulder",
    "right_elbow",
    "right_wrist",
    "left_shoulder",
    "left_elbow",
    "left_wrist",
    "right_hip",
    "right_knee",
    "right_ankle",
    "left_hip",
    "left_knee",
    "left_ankle",
    "hip",
    "spine",
    "head",
)

# Shoulders, elbows, wrists, hips, knees, ankles plus neck and head top.
# The pelvis, spine and mid-head are detector interpolations rather than
# observable surface points, so their sensor depths are unreliable.
DEFAULT_DEPTH_SUBSET = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)

# Parent of each joint in the kinematic tree; the root has parent -1.
DEFAULT_PARENTS = (16, 15, 1, 2, 3, 1, 5, 6, 14, 8, 9, 14, 11, 12, -1, 14, 1)


class DegeneratePoseError(ValueError):
    """Raised when a pose has no usable knee-to-neck extent."""


def _one_tree(parents: tuple[int, ...], root: int) -> bool:
    """Whether ``parents`` holds -1 at ``root`` alone and every other entry
    is a joint index whose chain of parents reaches ``root``."""
    if not (0 <= root < len(parents) and parents[root] == -1):
        return False
    reached = {root}
    for joint in range(len(parents)):
        chain = set()
        while joint not in reached:
            if joint in chain or not 0 <= joint < len(parents):
                return False
            chain.add(joint)
            joint = parents[joint]
        reached |= chain
    return True


@dataclass(frozen=True)
class SkeletonSpec:
    """Names and role indices of the joints making up a pose."""

    joint_names: tuple[str, ...] = DEFAULT_JOINT_NAMES
    root: int = 14
    neck: int = 1
    knees: tuple[int, int] = (9, 12)
    depth_subset: tuple[int, ...] = DEFAULT_DEPTH_SUBSET
    parents: tuple[int, ...] = DEFAULT_PARENTS

    def __post_init__(self) -> None:
        check_fields(self, type_rules(self))  # before the rules below index with them
        j = len(self.joint_names)
        check_fields(self, (
            ("joint_names", j >= 2 and len(set(self.joint_names)) == j, "two or more distinct names"),
            ("root", 0 <= self.root < j, f"a joint index in [0, {j})"),
            ("neck", 0 <= self.neck < j, f"a joint index in [0, {j})"),
            ("knees", len(self.knees) == 2 and all(0 <= k < j for k in self.knees), f"two joint indices in [0, {j})"),
            ("depth_subset", 0 < len(set(self.depth_subset)) == len(self.depth_subset)
             and all(0 <= k < j for k in self.depth_subset), f"one or more distinct joint indices in [0, {j})"),
            ("parents", len(self.parents) == j, f"one entry per joint, {j} in all"),
            ("parents", _one_tree(self.parents, self.root), f"one tree: -1 at the root, index {self.root}, alone, "
             f"and every other entry a joint index in [0, {j}) whose chain of parents reaches the root"),
        ))

    @property
    def num_joints(self) -> int:
        return len(self.joint_names)

    def bones(self) -> list[tuple[int, int]]:
        """(parent, child) pairs of the kinematic tree, excluding the root."""
        return [(p, c) for c, p in enumerate(self.parents) if p >= 0]


def default_skeleton() -> SkeletonSpec:
    return SkeletonSpec()


def save_skeleton(path: str | Path, spec: SkeletonSpec) -> None:
    """Write ``spec`` as JSON.  An existing file is rewritten in place,
    never truncated first (:func:`poselift.files.rewrite`)."""
    with rewrite(path) as fh:
        fh.write(json.dumps(asdict(spec), indent=2) + "\n")


def load_skeleton(path: str | Path) -> SkeletonSpec:
    """Read a file written by :func:`save_skeleton`; invalid JSON or a bad,
    missing or unknown field raises ValueError naming ``path``."""
    try:
        return fields_from_json(SkeletonSpec, json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as exc:  # JSON nested deeper than the decoder recurses
        raise ValueError(f"{path}: {exc}") from exc


def _check_pose(pose: np.ndarray, spec: SkeletonSpec) -> np.ndarray:
    arr = np.asarray(pose, dtype=np.float64)
    if arr.shape != (spec.num_joints, 3):
        raise ValueError(f"pose must have shape ({spec.num_joints}, 3), got {arr.shape}")
    return arr


def pose_to_vector(pose: np.ndarray, spec: SkeletonSpec) -> np.ndarray:
    """Flatten a pose (J, 3) to [root, relative offsets] (3J,), the network
    output layout; poses (..., J, 3) give vectors (..., 3J)."""
    arr = np.asarray(pose, dtype=np.float64)
    if arr.shape[-2:] != (spec.num_joints, 3):
        raise ValueError(f"pose must have shape (..., {spec.num_joints}, 3), got {arr.shape}")
    root = arr[..., spec.root, :]
    relative = np.delete(arr, spec.root, axis=-2) - root[..., None, :]
    return np.concatenate([root, relative.reshape(*arr.shape[:-2], 3 * spec.num_joints - 3)], axis=-1)


def vector_to_pose(vec: np.ndarray, spec: SkeletonSpec) -> np.ndarray:
    """Inverse of :func:`pose_to_vector`: (..., 3J) to (..., J, 3)."""
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] != 3 * spec.num_joints:
        raise ValueError(f"expected {3 * spec.num_joints} values on the last axis, got shape {arr.shape}")
    root = arr[..., :3]
    joints = arr[..., 3:].reshape(*arr.shape[:-1], spec.num_joints - 1, 3) + root[..., None, :]
    return np.insert(joints, spec.root, root, axis=-2)


def vector_index(spec: SkeletonSpec, joints, axis: int) -> np.ndarray:
    """Index of coordinate ``axis`` of each of ``joints`` in the
    :func:`pose_to_vector` layout: the root's own slot for the root, its
    root-relative offset's slot for any other joint."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis!r}")
    joints = np.asarray(joints, dtype=int)
    slot = np.where(joints == spec.root, 0, np.where(joints < spec.root, joints + 1, joints))
    return 3 * slot + axis


def knee_neck_distance(pose: np.ndarray, spec: SkeletonSpec) -> float:
    """Distance from the neck to the midpoint of the two knees, in mm."""
    arr = _check_pose(pose, spec)
    mid_knee = 0.5 * (arr[spec.knees[0]] + arr[spec.knees[1]])
    return float(np.linalg.norm(arr[spec.neck] - mid_knee))


def height_normalize(pose: np.ndarray, spec: SkeletonSpec, target_length: float = 920.0) -> np.ndarray:
    """Rescale a pose about its hip so the knee-to-neck extent hits a target.

    The hip stays exactly where it is, which preserves the absolute
    location while removing body-size variation; useful when comparing
    skeletons of people with different heights.
    """
    if not 0.0 < target_length < np.inf:  # NaN compares false
        raise ValueError(f"target_length must be finite and > 0, got {target_length}")
    arr = _check_pose(pose, spec)
    current = knee_neck_distance(arr, spec)
    if current <= 0.0 or not np.isfinite(current):
        raise DegeneratePoseError(f"knee-to-neck distance is {current}, cannot normalize")
    root = arr[spec.root]
    return root + (arr - root) * (target_length / current)
