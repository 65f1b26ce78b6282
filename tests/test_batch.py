"""SampleBatch and the vectorized helpers built on it.

The per-sample code that the batch helpers replaced is kept here as the
reference, written out with its own arithmetic rather than through the
camera functions the batch code calls: a Sample-level zoom, the
per-sample raw input, its standardization and the single-pose vector
layout.  Property tests
compare the batch helpers with it to the bit on random batches that mix
factor-1 rows, invalid readouts and weak rows.  The builder tests pin
the messages of a sample's own checks, made when it is built, and of the
builder's (joint count, depth source, map size), and that the builder
stores nothing on the samples.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift import data
from poselift.data import Sample, SampleBatch
from poselift.depth import DepthMap, load_depth, read_depth_at, save_depth
from poselift.geometry import CameraIntrinsics, zoom_augment
from poselift.pipeline import StandardizerStats, _raw_inputs, build_inputs, fit_standardizer, standardize_output
from poselift.skeleton import default_skeleton, pose_to_vector, vector_to_pose

SPEC = default_skeleton()
J = SPEC.num_joints
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------- per-sample reference

def ref_zoom(sample: Sample, factor: float) -> Sample:
    if factor == 1.0:
        return sample
    center = np.array([sample.camera.cx, sample.camera.cy])
    joints_3d = None if sample.joints_3d is None else sample.joints_3d.copy()
    if joints_3d is not None:
        joints_3d[:, 2] /= factor
    return dataclasses.replace(
        sample,
        joints_2d=center + factor * (sample.joints_2d - center),
        joints_3d=joints_3d,
        depth_readouts=sample.depth_readouts / factor,
    )


def ref_raw_input(sample: Sample):
    valid = np.isfinite(sample.depth_readouts) if sample.depth_valid is None else sample.depth_valid
    cam = sample.camera
    normalized = (sample.joints_2d - [cam.cx, cam.cy]) / [cam.fx, cam.fy]
    readouts = np.where(valid, sample.depth_readouts, np.nan)
    return np.concatenate([normalized.ravel(), readouts]), np.asarray(valid, dtype=bool)


def ref_build_input(sample: Sample, stats: StandardizerStats):
    raw, valid = ref_raw_input(sample)
    x = (raw - stats.input_mean) / stats.input_std
    x[np.isnan(x)] = 0.0
    return x, valid


def ref_pose_to_vector(pose: np.ndarray) -> np.ndarray:
    root = pose[SPEC.root]
    return np.concatenate([root, (np.delete(pose, SPEC.root, 0) - root).ravel()])


# ---------------------------------------------------------------- random batches

def _random_sample(rng, weak: bool, invalid_share: float, junk_invalid: bool, mask_given: bool) -> Sample:
    cam = CameraIntrinsics(fx=float(rng.uniform(200, 320)), fy=float(rng.uniform(200, 320)),
                           cx=float(rng.uniform(60, 100)), cy=float(rng.uniform(40, 80)), width=160, height=120)
    pose = rng.normal(0.0, 300.0, size=(J, 3)) + [0.0, 0.0, rng.uniform(2000.0, 7000.0)]
    readouts = pose[:, 2] + rng.normal(-40.0, 20.0, J)
    invalid = rng.random(J) < invalid_share
    # An invalid readout is NaN, or (with a mask) any junk value the mask hides.
    readouts[invalid] = rng.uniform(-1e4, 1e4, invalid.sum()) if junk_invalid and mask_given else np.nan
    return Sample(
        frame_id=f"f{rng.integers(1000)}",
        camera=cam,
        joints_2d=rng.uniform(-20.0, 180.0, size=(J, 2)),
        joints_3d=None if weak else pose,
        depth_readouts=readouts,
        depth_valid=~invalid if mask_given else None,
    )


@st.composite
def batches(draw, annotated_only: bool = False):
    """(samples, zoom factors): factor-1 rows, invalid readouts, weak rows."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weak = [False] * n if annotated_only else draw(st.lists(st.booleans(), min_size=n, max_size=n))
    invalid_share = draw(st.sampled_from([0.0, 0.3, 1.0]))
    junk, mask = draw(st.booleans()), draw(st.booleans())
    samples = [_random_sample(rng, w, invalid_share, junk, mask) for w in weak]
    factors = draw(st.lists(st.just(1.0) | st.floats(0.5, 2.0), min_size=n, max_size=n))
    return samples, np.array(factors)


def _random_stats(rng) -> StandardizerStats:
    return StandardizerStats(
        input_mean=rng.normal(size=3 * J), input_std=rng.uniform(0.1, 2.0, 3 * J),
        output_mean=rng.normal(size=3 * J), output_std=rng.uniform(0.1, 2.0, 3 * J),
        depth_offset_mean=np.zeros(len(SPEC.depth_subset)), depth_offset_std=np.ones(len(SPEC.depth_subset)),
    )


def _same_with_nans(a: np.ndarray, b: np.ndarray) -> bool:
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))) and a[~nan].tobytes() == b[~nan].tobytes()


# ---------------------------------------------------------------- properties

class TestAgainstPerSampleReference:
    @PROPERTY
    @given(batches())
    def test_zoom(self, case):
        samples, factors = case
        batch = SampleBatch.from_samples(samples, J)
        zoomed = zoom_augment(batch, factors)
        for i, (sample, factor) in enumerate(zip(samples, factors)):
            ref = ref_zoom(sample, float(factor))
            _, valid = ref_raw_input(ref)
            assert zoomed.joints_2d[i].tobytes() == ref.joints_2d.tobytes()
            assert _same_with_nans(zoomed.readouts[i], np.where(valid, ref.depth_readouts, np.nan))
            if zoomed.joints_3d is not None:
                assert zoomed.joints_3d[i].tobytes() == ref.joints_3d.tobytes()
        assert (zoomed.joints_3d is None) == any(s.joints_3d is None for s in samples)

    @PROPERTY
    @given(batches(), st.integers(0, 2**32 - 1))
    def test_raw_and_standardized_inputs(self, case, seed):
        samples, factors = case
        stats = _random_stats(np.random.default_rng(seed))
        zoomed = zoom_augment(SampleBatch.from_samples(samples, J), factors)
        refs = [ref_zoom(s, float(f)) for s, f in zip(samples, factors)]
        raw = np.stack([ref_raw_input(r)[0] for r in refs])
        assert _same_with_nans(_raw_inputs(zoomed), raw)
        x = build_inputs(zoomed, stats)
        pairs = [ref_build_input(r, stats) for r in refs]
        assert x.tobytes() == np.stack([p[0] for p in pairs]).tobytes()
        np.testing.assert_array_equal(~np.isnan(zoomed.readouts), np.stack([p[1] for p in pairs]))

    @PROPERTY
    @given(batches(annotated_only=True), st.integers(0, 2**32 - 1))
    def test_targets(self, case, seed):
        samples, factors = case
        stats = _random_stats(np.random.default_rng(seed))
        zoomed = zoom_augment(SampleBatch.from_samples(samples, J), factors)
        ref = np.stack([ref_pose_to_vector(ref_zoom(s, float(f)).joints_3d) for s, f in zip(samples, factors)])
        vectors = pose_to_vector(zoomed.joints_3d, SPEC)
        assert vectors.tobytes() == ref.tobytes()
        assert standardize_output(vectors, stats).tobytes() == standardize_output(ref, stats).tobytes()

    def test_fit_standardizer_input_and_output_stats(self):
        rng = np.random.default_rng(3)
        samples = [_random_sample(rng, False, 0.2, i % 2 == 0, i % 3 != 0) for i in range(32)]
        stats = fit_standardizer(SampleBatch.from_samples(samples, J), SPEC)
        raw = np.stack([ref_raw_input(s)[0] for s in samples])
        out = np.stack([ref_pose_to_vector(s.joints_3d) for s in samples])
        assert stats.input_mean.tobytes() == np.nanmean(raw, axis=0).tobytes()
        assert stats.input_std.tobytes() == np.nanstd(raw, axis=0).tobytes()
        assert stats.output_mean.tobytes() == out.mean(axis=0).tobytes()
        assert stats.output_std.tobytes() == out.std(axis=0).tobytes()


class TestPoseVectorBatchAxis:
    def test_leading_axes_match_single_poses_and_round_trip(self):
        poses = np.random.default_rng(4).normal(0.0, 500.0, size=(2, 3, J, 3))
        vectors = pose_to_vector(poses, SPEC)
        assert vectors.shape == (2, 3, 3 * J)
        for idx in np.ndindex(2, 3):
            assert vectors[idx].tobytes() == ref_pose_to_vector(poses[idx]).tobytes()
            assert vector_to_pose(vectors[idx], SPEC).tobytes() == vector_to_pose(vectors, SPEC)[idx].tobytes()
        np.testing.assert_allclose(vector_to_pose(vectors, SPEC), poses, rtol=0, atol=1e-9)

    def test_wrong_joint_count_is_rejected(self):
        with pytest.raises(ValueError, match="pose must have shape"):
            pose_to_vector(np.zeros((4, J - 1, 3)), SPEC)


# ---------------------------------------------------------------- the builder

def _sample(frame_id="f7", **kwargs) -> Sample:
    sample = _random_sample(np.random.default_rng(8), False, 0.2, False, True)
    return dataclasses.replace(sample, **{"frame_id": frame_id, "eval_visibility": np.ones(J, dtype=bool), **kwargs})


class TestFromSamples:
    def test_fields_and_take(self):
        samples = [_sample(f"f{i}") for i in range(4)]
        samples[2].eval_visibility = None
        batch = SampleBatch.from_samples(samples, J)
        assert len(batch) == 4 and list(batch.frame_ids) == ["f0", "f1", "f2", "f3"]
        assert batch.intrinsics.shape == (4, 4) and batch.joints_2d.shape == (4, J, 2)
        assert batch.readouts.shape == (4, J)
        np.testing.assert_array_equal(np.isnan(batch.readouts), [~s.depth_valid for s in samples])
        assert batch.joints_3d.shape == (4, J, 3) and batch.visibility is None
        assert SampleBatch.from_samples(samples[:2], J).visibility.shape == (2, J)
        rows = batch.take(np.array([3, 1, 3]))
        assert list(rows.frame_ids) == ["f3", "f1", "f3"]
        assert rows.joints_2d.tobytes() == batch.joints_2d[[3, 1, 3]].tobytes()
        assert rows.joints_3d.tobytes() == batch.joints_3d[[3, 1, 3]].tobytes()

    def test_weak_row_drops_the_pose_field(self):
        batch = SampleBatch.from_samples([_sample(), _sample(joints_3d=None)], J)
        assert batch.joints_3d is None

    @pytest.mark.parametrize("field, value, message", [
        ("joints_2d", np.zeros((J, 3)), r"sample f7: joints_2d has shape \(17, 3\), expected \(17, 2\)"),
        ("joints_2d", np.full((J, 2), np.inf), "sample f7: joints_2d contains non-finite values"),
        ("joints_3d", np.zeros((J - 1, 3)), r"sample f7: joints_3d has shape \(16, 3\)"),
        ("joints_3d", np.full((J, 3), np.nan), "sample f7: joints_3d contains non-finite values"),
        ("depth_readouts", np.zeros(J + 1), r"sample f7: depth_readouts has shape \(18,\)"),
        ("depth_valid", np.ones(3, dtype=bool), r"sample f7: depth_valid has shape \(3,\)"),
        ("depth_valid", np.ones(J, dtype=bool),
         r"sample f7: depth_readouts marked valid must be finite and > 0 "
         r"\(a false depth_valid, or null in a pose file, marks an invalid one\), got inf"),
        ("depth_readouts", np.full(J, -5.0),
         r"sample f7: depth_readouts marked valid must be finite and > 0 "
         r"\(a false depth_valid, or null in a pose file, marks an invalid one\), got -5.0"),
        ("eval_visibility", np.ones(2, dtype=bool), r"sample f7: eval_visibility has shape \(2,\)"),
        ("camera", None, "^sample f7: camera must be CameraIntrinsics, got NoneType$"),
        ("depth", np.ones((120, 160)), "^sample f7: depth must be DepthMap or None, got ndarray$"),
        ("eval_joints_3d", np.zeros((1, 2)), r"^sample f7: eval_joints_3d has shape \(1, 2\), expected \(17, 3\)$"),
        ("eval_joints_3d", np.full((J, 3), np.nan), "^sample f7: eval_joints_3d contains non-finite values$"),
    ])
    def test_errors_name_the_frame_and_the_field(self, field, value, message):
        readouts = np.full(J, 3000.0)
        readouts[0] = np.inf
        with pytest.raises(ValueError, match=message):
            _sample(**{"depth_readouts": readouts, "depth_valid": np.arange(J) > 0, field: value})

    def test_a_joint_count_other_than_the_skeletons_names_the_frame(self):
        """The one check ``from_samples`` makes on each sample: a 16-joint
        sample is whole on its own, but not against the 17-joint skeleton."""
        short = Sample(frame_id="f16", camera=_sample().camera, joints_2d=np.zeros((J - 1, 2)),
                       depth_readouts=np.full(J - 1, 3000.0))
        with pytest.raises(ValueError) as info:
            SampleBatch.from_samples([_sample("f1"), short], J)
        assert str(info.value) == "sample f16: joints_2d has shape (16, 2), expected (17, 2)"

    def test_without_any_depth_source_raises(self):
        with pytest.raises(ValueError, match="sample f7 has no depth source"):
            SampleBatch.from_samples([_sample(depth_readouts=None, depth_valid=None)], J)

    def test_missing_readouts_come_from_the_map_or_file_and_are_not_stored(self, tmp_path):
        values = np.random.default_rng(9).uniform(1000.0, 5000.0, (120, 160)).astype(np.float32)
        values[50:60, :] = np.nan
        save_depth(tmp_path / "f.dmap", DepthMap(values))
        from_file = _sample("a", depth_readouts=None, depth_valid=None, depth_path=str(tmp_path / "f.dmap"))
        from_map = _sample("b", depth_readouts=None, depth_valid=None, depth=DepthMap(values))
        batch = SampleBatch.from_samples([from_file, from_map], J)
        assert from_file.depth is None and from_file.depth_readouts is None and from_map.depth_readouts is None
        from_map.ensure_readouts()
        assert batch.readouts[0].tobytes() == batch.readouts[1].tobytes()
        assert _same_with_nans(batch.readouts[1], from_map.depth_readouts)
        np.testing.assert_array_equal(~np.isnan(batch.readouts[1]), from_map.depth_valid)
        np.testing.assert_array_equal(from_map.depth_valid, read_depth_at(from_map.depth, from_map.joints_2d).valid)

    @pytest.mark.parametrize("size", [(60, 80), (240, 320), (160, 120)], ids=["smaller", "larger", "transposed"])
    def test_a_map_of_another_size_than_the_camera_names_frame_sizes_and_path(self, tmp_path, size):
        """A map that is not the camera's (120, 160) image would read wrong
        or no depths, from memory or from a DMAP file."""
        values = np.full(size, 3000.0, dtype=np.float32)
        save_depth(tmp_path / "f.dmap", DepthMap(values))
        from_map = _sample(depth_readouts=None, depth_valid=None, depth=DepthMap(values))
        from_file = _sample(depth_readouts=None, depth_valid=None, depth_path=str(tmp_path / "f.dmap"))
        for sample, path in ((from_map, ""), (from_file, f" {tmp_path / 'f.dmap'}")):
            with pytest.raises(ValueError) as info:
                SampleBatch.from_samples([_sample("f1"), sample], J)
            assert str(info.value) == (
                f"sample f7: depth map{path} has (height, width) {size}, the camera's image (120, 160)")

    def test_adjacent_samples_of_a_dmap_file_load_it_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(10)
        paths = []
        for name in "abc":
            values = rng.uniform(1000.0, 5000.0, (120, 160)).astype(np.float32)
            values[rng.random(values.shape) < 0.2] = np.nan
            save_depth(tmp_path / f"{name}.dmap", DepthMap(values))
            paths.append(str(tmp_path / f"{name}.dmap"))
        samples = [_sample(f"f{i}", depth_readouts=None, depth_valid=None, depth_path=paths[k])
                   for i, k in enumerate([0, 0, 1, 1, 1, 2])]
        samples.append(_sample("cached", depth_path=paths[2]))
        expected = [read_depth_at(load_depth(s.depth_path), s.joints_2d) for s in samples[:-1]]
        expected.append((samples[-1].depth_readouts, samples[-1].depth_valid))
        loads = []
        real_load = data.load_depth
        monkeypatch.setattr(data, "load_depth", lambda path: loads.append(path) or real_load(path))
        batch = SampleBatch.from_samples(samples, J)
        assert loads == paths
        for i, (values, valid) in enumerate(expected):
            assert _same_with_nans(batch.readouts[i], np.where(valid, values, np.nan))
            np.testing.assert_array_equal(~np.isnan(batch.readouts[i]), valid)
