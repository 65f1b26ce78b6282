"""Sample records and the JSON-lines pose file format.

Round trips are checked bit-exact (reprs of float64 survive JSON), the
weak/annotated split hinges on the presence of a 3D pose, and depth map
paths stored relative to the pose file resolve against its directory.
"""

import json

import numpy as np
import pytest

from poselift.data import (
    Dataset,
    Sample,
    group_frames,
    load_dataset,
    read_pose_file,
    record_to_sample,
    sample_to_record,
    split_dataset,
    write_pose_file,
)
from poselift.depth import DepthMap, load_depth, read_depth_at, save_depth
from poselift.geometry import CameraIntrinsics

CAM = CameraIntrinsics(fx=270.0, fy=265.3, cx=80.7, cy=59.2)


def _sample(frame_id="f0", annotated=True, readouts=None, rng=None, **kwargs):
    rng = rng or np.random.Generator(np.random.Philox(0))
    joints_2d = rng.uniform(0.0, 150.0, size=(17, 2))
    joints_3d = rng.normal(0.0, 300.0, size=(17, 3)) + [0, 0, 3000] if annotated else None
    if readouts is not None:
        readouts = np.asarray(readouts, dtype=np.float64)
    return Sample(
        frame_id=frame_id,
        camera=CAM,
        width=160,
        height=120,
        joints_2d=joints_2d,
        joints_3d=joints_3d,
        depth_readouts=readouts,
        depth_valid=None if readouts is None else np.isfinite(readouts),
        **kwargs,
    )


class TestRecordRoundTrip:
    def test_annotated_bit_exact_through_json(self):
        sample = _sample(readouts=[0.1 + 0.2] * 17)
        record = json.loads(json.dumps(sample_to_record(sample)))
        back = record_to_sample(record)
        assert back.frame_id == sample.frame_id
        assert back.camera == sample.camera
        assert (back.width, back.height) == (160, 120)
        np.testing.assert_array_equal(back.joints_2d, sample.joints_2d)
        np.testing.assert_array_equal(back.joints_3d, sample.joints_3d)
        np.testing.assert_array_equal(back.depth_readouts, sample.depth_readouts)

    def test_invalid_readout_becomes_null_and_back(self):
        readouts = np.full(17, 2500.0)
        readouts[3] = np.nan
        sample = _sample(readouts=readouts)
        record = sample_to_record(sample)
        assert record["depth_readouts"][3] is None
        assert record["depth_readouts"][4] == 2500.0
        back = record_to_sample(record)
        assert np.isnan(back.depth_readouts[3])
        assert not back.depth_valid[3]
        assert back.depth_valid[4]

    def test_weak_sample_has_no_pose_key(self):
        sample = _sample(annotated=False)
        record = sample_to_record(sample)
        assert "joints_3d" not in record
        assert record_to_sample(record).joints_3d is None

    def test_use_eval_pose_writes_withheld_ground_truth(self):
        sample = _sample(annotated=False)
        sample.eval_joints_3d = np.full((17, 3), 7.0)
        record = sample_to_record(sample, use_eval_pose=True)
        np.testing.assert_array_equal(record["joints_3d"], sample.eval_joints_3d)

    def test_missing_readouts_key_loads_as_none(self):
        back = record_to_sample(sample_to_record(_sample()))
        assert back.depth_readouts is None
        assert back.depth_valid is None

    def test_gt_pose_fallback(self):
        annotated = _sample()
        assert annotated.gt_pose() is annotated.joints_3d
        weak = _sample(annotated=False)
        assert weak.gt_pose() is None
        weak.eval_joints_3d = np.zeros((17, 3))
        assert weak.gt_pose() is weak.eval_joints_3d


class TestPoseFile:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(1))
        samples = [
            _sample("a", rng=rng, readouts=rng.uniform(500, 9000, 17)),
            _sample("b", annotated=False, rng=rng),
        ]
        path = tmp_path / "samples.jsonl"
        write_pose_file(path, samples)
        back = read_pose_file(path)
        assert [s.frame_id for s in back] == ["a", "b"]
        np.testing.assert_array_equal(back[0].joints_3d, samples[0].joints_3d)
        np.testing.assert_array_equal(back[0].depth_readouts, samples[0].depth_readouts)
        assert back[1].joints_3d is None

    def test_relative_depth_path_resolves_against_the_file(self, tmp_path):
        (tmp_path / "depth").mkdir()
        values = np.random.Generator(np.random.Philox(2)).uniform(500, 9000, (4, 6))
        values = values.astype(np.float32)
        save_depth(tmp_path / "depth" / "f0.dmap", DepthMap(6, 4, values))
        sample = _sample(depth_path="depth/f0.dmap")
        sample.joints_2d = np.array([[1.0, 1.0], [4.5, 2.5]] + [[0.0, 0.0]] * 15)
        path = tmp_path / "samples.jsonl"
        write_pose_file(path, [sample])
        back = read_pose_file(path)[0]
        loaded = load_depth(back.depth_path)
        assert loaded.values.tobytes() == values.tobytes()
        back.ensure_readouts()
        ref = read_depth_at(loaded, back.joints_2d)
        np.testing.assert_array_equal(back.depth_readouts, ref.values)
        np.testing.assert_array_equal(back.depth_valid, ref.valid)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = json.dumps(sample_to_record(_sample()))
        path.write_text(f"\n{record}\n\n{record}\n")
        assert len(read_pose_file(path)) == 2

    def test_invalid_json_reports_the_line_number(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = json.dumps(sample_to_record(_sample()))
        path.write_text(f"{record}\n{{broken\n")
        with pytest.raises(ValueError, match=r"samples\.jsonl:2"):
            read_pose_file(path)

    def test_missing_field_names_file_line_and_field(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample())
        del record["camera"]
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"samples\.jsonl:2: record has no field 'camera'"):
            read_pose_file(path)

    @pytest.mark.parametrize("field, value", [
        ("joints_2d", [[1.0, 2.0, 3.0]] * 17),
        ("joints_3d", [[1.0, 2.0, 3.0]] * 16),
        ("joints_3d", [[1.0, 2.0]] * 17),
        ("depth_readouts", [1000.0] * 18),
    ])
    def test_joint_arrays_must_agree_on_shape(self, tmp_path, field, value):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample(readouts=[1000.0] * 17))
        record[field] = value
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"samples\.jsonl:1: {field} has shape"):
            read_pose_file(path)


    @pytest.mark.parametrize("field, bad", [
        ("joints_2d", float("nan")), ("joints_2d", float("inf")),
        ("joints_3d", float("nan")), ("joints_3d", float("-inf")),
    ])
    def test_non_finite_joints_name_file_line_and_field(self, tmp_path, field, bad):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample())
        record[field][4][1] = bad
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"samples\.jsonl:2: {field} contains non-finite values"):
            read_pose_file(path)

    def test_null_readout_marks_an_invalid_one(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample(readouts=[1000.0] * 17))
        record["depth_readouts"][5] = None
        path.write_text(json.dumps(record) + "\n")
        sample = read_pose_file(path)[0]
        assert np.isnan(sample.depth_readouts[5])
        assert sample.depth_valid.sum() == 16 and not sample.depth_valid[5]


class TestDatasetHelpers:
    def test_split_partitions_on_pose_presence(self):
        samples = [
            _sample("a"),
            _sample("b", annotated=False),
            _sample("c"),
            _sample("d", annotated=False),
        ]
        dataset = split_dataset(samples)
        assert [s.frame_id for s in dataset.annotated] == ["a", "c"]
        assert [s.frame_id for s in dataset.weak] == ["b", "d"]
        assert [s.frame_id for s in dataset.all_samples()] == ["a", "c", "b", "d"]

    def test_group_frames_keeps_first_appearance_order(self):
        samples = [_sample(f) for f in ["b", "a", "b", "c", "a"]]
        frames = group_frames(samples)
        assert list(frames) == ["b", "a", "c"]
        assert [len(v) for v in frames.values()] == [2, 2, 1]
        assert frames["b"][0] is samples[0] and frames["b"][1] is samples[2]

    def test_load_dataset_reads_the_samples_file(self, tmp_path):
        write_pose_file(tmp_path / "samples.jsonl", [_sample("a"), _sample("b", annotated=False)])
        dataset = load_dataset(tmp_path)
        assert isinstance(dataset, Dataset)
        assert len(dataset.annotated) == 1 and len(dataset.weak) == 1


class TestEnsureReadouts:
    def test_idempotent_and_source_free_once_cached(self):
        readouts = np.full(17, 1234.5)
        sample = _sample(readouts=readouts)
        sample.ensure_readouts()  # no depth source needed, values cached
        np.testing.assert_array_equal(sample.depth_readouts, readouts)
        before = sample.depth_readouts
        sample.ensure_readouts()
        assert sample.depth_readouts is before

    def test_backfills_validity_mask(self):
        readouts = np.full(17, 900.0)
        readouts[-1] = np.nan
        sample = _sample()
        sample.depth_readouts = readouts
        sample.depth_valid = None
        sample.ensure_readouts()
        assert sample.depth_valid is not None
        assert sample.depth_valid.sum() == 16

    def test_without_any_source_raises(self):
        sample = _sample()
        with pytest.raises(ValueError, match="no depth source"):
            sample.ensure_readouts()
