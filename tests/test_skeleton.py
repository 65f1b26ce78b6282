"""Skeleton tests: layout validation, the pose vector, height normalization.

The [root, root-relative offsets] vector is checked as a round trip; the
height normalization is checked for both its target property (the
knee-to-neck distance lands on the requested length) and its anchor
property (the hip does not move at all).
"""

import dataclasses
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from poselift.data import fields_from_json
from poselift.skeleton import (
    DEFAULT_JOINT_NAMES,
    DegeneratePoseError,
    SkeletonSpec,
    default_skeleton,
    height_normalize,
    knee_neck_distance,
    load_skeleton,
    pose_to_vector,
    save_skeleton,
    vector_index,
    vector_to_pose,
)

SPEC = default_skeleton()


def _random_pose(rng) -> np.ndarray:
    pose = rng.normal(scale=350.0, size=(SPEC.num_joints, 3))
    pose[:, 2] += rng.uniform(1500.0, 7000.0)
    return pose


class TestSpecLayout:
    def test_default_layout(self):
        assert SPEC.num_joints == 17
        assert SPEC.root == 14
        assert SPEC.joint_names[SPEC.root] == "hip"
        assert SPEC.joint_names[SPEC.neck] == "neck"
        assert len(SPEC.depth_subset) == 14
        assert SPEC.root not in SPEC.depth_subset

    def test_parents_form_a_tree_over_all_joints(self):
        assert len(SPEC.bones()) == SPEC.num_joints - 1
        reached = {SPEC.root}
        frontier = [SPEC.root]
        while frontier:
            node = frontier.pop()
            for child, parent in enumerate(SPEC.parents):
                if parent == node and child not in reached:
                    reached.add(child)
                    frontier.append(child)
        assert reached == set(range(SPEC.num_joints))

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SkeletonSpec(joint_names=("a",))
        with pytest.raises(ValueError):
            SkeletonSpec(joint_names=("a", "a", "b"), root=0, neck=1,
                         knees=(1, 2), depth_subset=(0,), parents=(-1, 0, 0))
        with pytest.raises(ValueError):
            SkeletonSpec(root=99)
        with pytest.raises(ValueError):
            SkeletonSpec(depth_subset=(0, 0, 1))
        with pytest.raises(ValueError):
            SkeletonSpec(depth_subset=(0, 99))
        with pytest.raises(ValueError):
            SkeletonSpec(parents=(0,) * 17)  # root must have parent -1
        with pytest.raises(ValueError):
            SkeletonSpec(parents=(-1,) * 16)  # wrong length

    @pytest.mark.parametrize("field, value, need", [
        ("root", 14.0, "int"),
        ("knees", (9.0, 12), "tuple[int, int]"),
        ("neck", True, "int"),
    ])
    def test_a_wrong_type_is_named(self, field, value, need):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be {need}, got {value!r}')}$"):
            SkeletonSpec(**{field: value})

    def test_dict_and_file_round_trip(self, tmp_path):
        assert fields_from_json(SkeletonSpec, json.loads(json.dumps(asdict(SPEC)))) == SPEC
        path = tmp_path / "skeleton.json"
        save_skeleton(path, SPEC)
        assert load_skeleton(path) == SPEC

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(joint_names=["a", "b"], root=0, neck=1, knees=[0, 1],
                            depth_subset=[0, 1], parents=[-1, "0"]), "parents"),
        (lambda d: d.pop("root"), "root"),
        (lambda d: d.update(knees=[9, 12.0]), "knees"),
        (lambda d: d.update(pelvis=14), "pelvis"),
        (lambda d: d.update(depth_subset=[]), "depth_subset"),
    ])
    def test_bad_file_field_is_named(self, tmp_path, edit, field):
        d = asdict(SPEC)
        edit(d)
        path = tmp_path / "skeleton.json"
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=f"skeleton.json: .*{field}"):
            load_skeleton(path)


    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "skeleton.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(asdict(SPEC)).encode())
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't decode"):
            load_skeleton(path)


class TestDecomposeCompose:
    """pose_to_vector splits a pose into its root and root-relative
    offsets; vector_to_pose composes it back."""

    def test_relative_offsets_are_root_relative(self):
        pose = np.arange(51, dtype=np.float64).reshape(17, 3) + [0.0, 0.0, 2000.0]
        vec = pose_to_vector(pose, SPEC)
        np.testing.assert_array_equal(vec[:3], pose[14])
        np.testing.assert_array_equal(vec[3:].reshape(16, 3), np.delete(pose, 14, axis=0) - pose[14])

    def test_vector_layout_round_trip(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pose = _random_pose(rng)
            vec = pose_to_vector(pose, SPEC)
            assert vec.shape == (51,)
            np.testing.assert_allclose(vec[:3], pose[14], rtol=0, atol=0)
            np.testing.assert_allclose(vector_to_pose(vec, SPEC), pose, rtol=0, atol=1e-9)

    def test_shape_errors(self):
        with pytest.raises(ValueError, match=r"pose must have shape \(\.\.\., 17, 3\), got \(16, 3\)"):
            pose_to_vector(np.zeros((16, 3)), SPEC)
        with pytest.raises(ValueError, match=r"expected 51 values on the last axis, got shape \(50,\)"):
            vector_to_pose(np.zeros(50), SPEC)


class TestVectorIndex:
    def test_head_z_dims_layout(self):
        np.testing.assert_array_equal(vector_index(SPEC, SPEC.depth_subset, 2), np.arange(5, 45, 3))

    def test_head_z_dims_with_root_in_subset(self):
        spec = dataclasses.replace(SPEC, depth_subset=SPEC.depth_subset + (SPEC.root,))
        dims = vector_index(spec, spec.depth_subset, 2)
        np.testing.assert_array_equal(dims[:-1], np.arange(5, 45, 3))
        assert dims[-1] == 2

    def test_matches_pose_to_vector(self):
        """Each coordinate sits where pose_to_vector puts it: the root's
        own value for the root, the root-relative offset for the others;
        together the indices cover the vector once."""
        pose = _random_pose(np.random.default_rng(14))
        vec = pose_to_vector(pose, SPEC)
        expected = pose - np.where(np.arange(SPEC.num_joints)[:, None] == SPEC.root, 0.0, pose[SPEC.root])
        idx = np.stack([vector_index(SPEC, range(SPEC.num_joints), axis) for axis in range(3)], axis=1)
        np.testing.assert_array_equal(vec[idx], expected)
        np.testing.assert_array_equal(np.sort(idx.ravel()), np.arange(3 * SPEC.num_joints))

    def test_bad_axis_raises(self):
        with pytest.raises(ValueError, match="axis must be 0, 1 or 2, got 3"):
            vector_index(SPEC, SPEC.depth_subset, 3)


class TestKneeNeck:
    def test_hand_computed_distance(self):
        pose = np.zeros((17, 3))
        pose[SPEC.neck] = [0.0, -520.0, 0.0]
        pose[SPEC.knees[0]] = [-100.0, 470.0, 0.0]
        pose[SPEC.knees[1]] = [100.0, 470.0, 0.0]
        # Midpoint of the knees is (0, 470, 0), so the distance is 990.
        assert knee_neck_distance(pose, SPEC) == pytest.approx(990.0, abs=1e-12)


class TestHeightNormalize:
    def test_hits_target_and_keeps_hip_fixed(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            pose = _random_pose(rng)
            target = rng.uniform(600.0, 1200.0)
            out = height_normalize(pose, SPEC, target_length=target)
            got = knee_neck_distance(out, SPEC)
            assert abs(got - target) / target < 1e-9
            np.testing.assert_array_equal(out[SPEC.root], pose[SPEC.root])

    def test_scaling_is_about_the_hip(self):
        """Every joint moves along its ray from the hip by a single factor."""
        pose = _random_pose(np.random.default_rng(2))
        out = height_normalize(pose, SPEC, target_length=920.0)
        factor = 920.0 / knee_neck_distance(pose, SPEC)
        np.testing.assert_allclose(
            out - pose[SPEC.root], (pose - pose[SPEC.root]) * factor, rtol=1e-12, atol=1e-9
        )

    def test_degenerate_pose_raises(self):
        pose = np.zeros((17, 3))  # knees and neck coincide
        with pytest.raises(DegeneratePoseError):
            height_normalize(pose, SPEC)

    @pytest.mark.parametrize("target", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_target_raises(self, target):
        pose = _random_pose(np.random.default_rng(3))
        with pytest.raises(ValueError, match=f"^target_length must be finite and > 0, got {target}$"):
            height_normalize(pose, SPEC, target_length=target)


class TestJointNames:
    def test_depth_subset_covers_the_observable_joints(self):
        subset_names = {DEFAULT_JOINT_NAMES[i] for i in SPEC.depth_subset}
        assert "hip" not in subset_names
        assert "spine" not in subset_names
        assert "head" not in subset_names
        assert {"neck", "left_wrist", "right_ankle"} <= subset_names
