"""Sample records and the JSON-lines pose file format.

Round trips are checked bit-exact (reprs of float64 survive JSON), the
weak/annotated split hinges on the presence of a 3D pose, and depth map
paths stored relative to the pose file resolve against its directory,
also after the file is rewritten elsewhere.  Every rule of the configs,
the skeleton and the camera, checked through ``check_fields``, names its
field and the bad value, and a value their JSON reader refuses is
refused in code with the same error.
"""

import json
import os
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from poselift.checks import fields_from_json
from poselift.data import (
    Dataset,
    Sample,
    SampleBatch,
    group_frames,
    load_dataset,
    read_pose_file,
    record_to_sample,
    sample_to_record,
    split_dataset,
    write_dataset,
    write_pose_file,
)
from poselift.depth import DepthMap, load_depth, read_depth_at, save_depth
from poselift.geometry import CameraIntrinsics
from poselift.nn import MlpConfig
from poselift.pipeline import ConfigError, TrainConfig
from poselift.skeleton import SkeletonSpec
from poselift.synth import SceneConfig

CAM = CameraIntrinsics(fx=270.0, fy=265.3, cx=80.7, cy=59.2, width=160, height=120)


def _sample(frame_id="f0", annotated=True, readouts=None, rng=None, **kwargs):
    rng = rng or np.random.Generator(np.random.Philox(0))
    joints_2d = rng.uniform(0.0, 150.0, size=(17, 2))
    joints_3d = rng.normal(0.0, 300.0, size=(17, 3)) + [0, 0, 3000] if annotated else None
    if readouts is not None:
        readouts = np.asarray(readouts, dtype=np.float64)
    return Sample(
        frame_id=frame_id,
        camera=CAM,
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
        assert (back.camera.width, back.camera.height) == (160, 120)
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

    def test_junk_under_a_false_mask_is_stored_as_nan(self):
        """The mask's invalid readouts are NaN in the sample; its record
        and batch row have the bytes of a sample built with NaN there."""
        junk, nan = np.full(17, 2500.0), np.full(17, 2500.0)
        junk[[2, 7]], nan[[2, 7]] = [-3.0, np.inf], np.nan
        mask = ~np.isin(np.arange(17), [2, 7])
        twin = _sample(readouts=nan)
        built = Sample(frame_id=twin.frame_id, camera=CAM, joints_2d=twin.joints_2d, joints_3d=twin.joints_3d,
                       depth_readouts=junk, depth_valid=mask)
        assert np.isnan(built.depth_readouts[[2, 7]]).all() and np.array_equal(built.depth_valid, mask)
        assert junk[2] == -3.0  # the caller's array is not written
        assert json.dumps(sample_to_record(built)) == json.dumps(sample_to_record(twin))
        assert sample_to_record(built)["depth_readouts"][2] is None
        rows = [SampleBatch.from_samples([s], 17).readouts.tobytes() for s in (built, twin)]
        assert rows[0] == rows[1]

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


# JSON lines that parse to something other than an object, and the type named.
_NOT_OBJECTS = [("[1, 2]", "list"), ("null", "NoneType"), ("5", "int"), ('"x"', "str")]


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
        values = np.random.Generator(np.random.Philox(2)).uniform(500, 9000, (120, 160))
        values = values.astype(np.float32)  # the size of _sample's camera image
        save_depth(tmp_path / "depth" / "f0.dmap", DepthMap(values))
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

    def test_depth_path_survives_a_rewrite_into_another_directory(self, tmp_path, monkeypatch):
        """Paths given relative to the working directory: a file read from
        gen/ and written to other/ still points at gen/'s maps, and one
        rewritten beside its source keeps the source's bytes."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "gen" / "depth").mkdir(parents=True)
        (tmp_path / "other").mkdir()
        values = np.random.Generator(np.random.Philox(3)).uniform(500, 9000, (120, 160)).astype(np.float32)
        save_depth(tmp_path / "gen" / "depth" / "f0.dmap", DepthMap(values))
        write_pose_file("gen/samples.jsonl", [_sample(depth_path="depth/f0.dmap")])
        samples = read_pose_file("gen/samples.jsonl")
        write_pose_file("other/samples.jsonl", samples)
        write_pose_file("gen/again.jsonl", samples)
        assert json.loads(Path("other/samples.jsonl").read_text())["depth_path"] == "../gen/depth/f0.dmap"
        assert Path("gen/again.jsonl").read_bytes() == Path("gen/samples.jsonl").read_bytes()
        moved = SampleBatch.from_samples(read_pose_file("other/samples.jsonl"), 17)
        expected = read_depth_at(DepthMap(values), samples[0].joints_2d)
        np.testing.assert_array_equal(moved.readouts[0], np.where(expected.valid, expected.values, np.nan))
        np.testing.assert_array_equal(~np.isnan(moved.readouts[0]), expected.valid)

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

    def test_json_nested_too_deeply_names_file_and_line(self, tmp_path):
        """Deeper than the recursion limit, json.loads raised a bare RecursionError."""
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + "[" * 100_000 + "\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: invalid JSON record: maximum recursion "):
            read_pose_file(path)

    @pytest.mark.parametrize("line_no", [1, 3])
    def test_bytes_that_are_not_utf8_name_file_and_line(self, tmp_path, line_no):
        path = tmp_path / "samples.jsonl"
        lines = [json.dumps(sample_to_record(_sample())).encode()] * 3
        lines[line_no - 1] = b"\xff\xfe" + lines[line_no - 1]
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{line_no}: not UTF-8 text: "):
            read_pose_file(path)

    @pytest.mark.parametrize("line, kind", _NOT_OBJECTS)
    def test_record_that_is_not_an_object_names_file_line_and_type(self, tmp_path, line, kind):
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            read_pose_file(path)
        assert str(info.value) == f"{path}:2: record must be a JSON object, got {kind}"

    @pytest.mark.parametrize("line, kind", _NOT_OBJECTS)
    def test_record_to_sample_rejects_a_record_that_is_not_an_object(self, line, kind):
        with pytest.raises(ValueError) as info:
            record_to_sample(json.loads(line))
        assert str(info.value) == f"record must be a JSON object, got {kind}"

    def test_missing_field_names_file_line_and_field(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample())
        del record["camera"]
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"samples\.jsonl:2: record has no field 'camera'"):
            read_pose_file(path)

    def test_camera_without_a_size_field_names_it(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample())
        del record["camera"]["width"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=r"samples\.jsonl:1: record has no field 'width'$"):
            read_pose_file(path)

    @pytest.mark.parametrize("field, value", [
        ("joints_2d", [[1.0, 2.0, 3.0]] * 17),
        ("joints_2d", 5.0),
        ("joints_2d", [[[1.0, 2.0]]] * 17),
        ("joints_3d", [[1.0, 2.0, 3.0]] * 16),
        ("joints_3d", [[1.0, 2.0]] * 17),
        ("depth_readouts", [1000.0] * 18),
    ])
    def test_joint_arrays_must_agree_on_shape(self, tmp_path, field, value):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample(readouts=[1000.0] * 17))
        record[field] = value
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"samples\.jsonl:1: sample f0: {field} has shape"):
            read_pose_file(path)

    @pytest.mark.parametrize("field, value", [
        ("joints_2d", [[1.0, 2.0, 3.0]] * 17),
        ("joints_2d", 5.0),
        ("joints_2d", [[1.0, float("inf")]] * 17),
        ("joints_3d", [[1.0, 2.0, 3.0]] * 16),
        ("joints_3d", [[1.0, 2.0, float("nan")]] * 17),
        ("depth_readouts", [1000.0] * 18),
        ("depth_readouts", [1000.0] * 16 + [-5.0]),
        ("depth_readouts", [None] * 16 + [float("inf")]),
    ])
    def test_a_built_sample_and_a_pose_file_give_one_message(self, tmp_path, field, value):
        """The same bad field, built in code and read from a file, raises
        the same message; the file adds its path and line."""
        good = _sample(readouts=[1000.0] * 17)
        changes = {field: np.array(value, dtype=np.float64)}
        if field == "depth_readouts":
            changes["depth_valid"] = np.array([v is not None for v in value])
        with pytest.raises(ValueError) as built:
            Sample(**{**vars(good), **changes})
        record = sample_to_record(good)
        record[field] = value
        path = tmp_path / "samples.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError) as read:
            read_pose_file(path)
        assert str(built.value).startswith("sample f0: ")
        assert str(read.value) == f"{path}:1: {built.value}"

    @pytest.mark.parametrize("field, bad", [
        ("joints_2d", float("nan")), ("joints_2d", float("inf")),
        ("joints_3d", float("nan")), ("joints_3d", float("-inf")),
    ])
    def test_non_finite_joints_name_file_line_and_field(self, tmp_path, field, bad):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample())
        record[field][4][1] = bad
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"samples\.jsonl:2: sample f0: {field} contains non-finite values"):
            read_pose_file(path)

    def test_null_readout_marks_an_invalid_one(self, tmp_path):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample(readouts=[1000.0] * 17))
        record["depth_readouts"][5] = None
        path.write_text(json.dumps(record) + "\n")
        sample = read_pose_file(path)[0]
        assert np.isnan(sample.depth_readouts[5])
        assert sample.depth_valid.sum() == 16 and not sample.depth_valid[5]

    @pytest.mark.parametrize("bad, text", [(float("nan"), "NaN"), (float("inf"), "Infinity"), (-5.0, "-5.0")])
    def test_readout_other_than_null_must_be_finite_and_positive(self, tmp_path, bad, text):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample(readouts=[1000.0] * 17))
        record["depth_readouts"][5] = bad
        line = json.dumps(record)
        assert f", {text}, " in line  # the literal json.loads accepts
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + line + "\n")
        with pytest.raises(ValueError, match=rf"samples\.jsonl:2: sample f0: depth_readouts marked valid must be "
                                             rf"finite and > 0 \(a false depth_valid, or null in a pose file, "
                                             rf"marks an invalid one\), got {bad}$"):
            read_pose_file(path)

    @pytest.mark.parametrize("field", ["width", "height"])
    def test_camera_size_must_be_positive(self, tmp_path, field):
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample())
        record["camera"][field] = -5
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=rf"samples\.jsonl:1: camera {field} must be >= 1, got -5$"):
            read_pose_file(path)

    @pytest.mark.parametrize("keys, value, message", [
        (("camera", "width"), None, "camera width must be int, got None"),
        (("camera", "fx"), None, "camera fx must be float, got None"),
        (("camera",), [1, 2], "field 'camera' must be an object, got [1, 2]"),
        (("depth_path",), 5, "depth_path must be str | None, got 5"),
        (("camera", "width"), 160.7, "camera width must be int, got 160.7"),
        (("camera", "width"), True, "camera width must be int, got True"),
        (("camera", "fx"), True, "camera fx must be float, got True"),
        (("camera", "fx"), "250", "camera fx must be float, got '250'"),
        (("frame_id",), 7, "frame_id must be str, got 7"),
        (("frame_id",), None, "frame_id must be str, got None"),
        (("joints_2d", 3, 0), "1.5", "field 'joints_2d' must hold numbers, got '1.5'"),
        (("joints_2d", 3, 1), True, "field 'joints_2d' must hold numbers, got True"),
        (("joints_3d", 0, 2), "4000", "field 'joints_3d' must hold numbers, got '4000'"),
        (("depth_readouts", 5), "3000.5", "field 'depth_readouts' must hold numbers or null, got '3000.5'"),
        (("depth_readouts", 5), True, "field 'depth_readouts' must hold numbers or null, got True"),
        (("camera", "fx"), 10**400, f"camera fx must be finite, got {10**400}"),
        (("joints_3d", 2, 0), 10**400, "field 'joints_3d' holds an integer beyond float range"),
        (("depth_readouts", 0), 10**400, "field 'depth_readouts' holds an integer beyond float range"),
    ], ids=["width-null", "fx-null", "camera-list", "depth_path-int", "width-float", "width-bool", "fx-bool",
            "fx-string", "frame_id-int", "frame_id-null", "joint2d-string", "joint2d-bool", "joint3d-string",
            "readout-string", "readout-bool", "fx-huge-int", "joint3d-huge-int", "readout-huge-int"])
    def test_field_of_the_wrong_type_names_file_line_and_field(self, tmp_path, keys, value, message):
        """No field is coerced: a value whose JSON type does not fit raises,
        and so does a joint or readout that is not a JSON number (a readout
        may be null) or an integer beyond float range."""
        path = tmp_path / "samples.jsonl"
        record = sample_to_record(_sample(readouts=[1000.0] * 17))
        target = record
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(sample_to_record(_sample())) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValueError) as info:
            read_pose_file(path)
        assert str(info.value) == f"{path}:2: {message}"


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

    def test_write_dataset_saves_each_frame_map_once_and_loads_back(self, tmp_path):
        maps = {f: DepthMap(np.full((120, 160), 2500.0 + i)) for i, f in enumerate(["a", "b"])}
        samples = [_sample(f, annotated=f == "a", depth=maps[f]) for f in ["a", "a", "b"]]
        samples[2].eval_joints_3d = samples[0].joints_3d
        assert write_dataset(tmp_path, split_dataset(samples)) == 2
        assert sorted(p.name for p in (tmp_path / "depth").iterdir()) == ["a.dmap", "b.dmap"]
        dataset = load_dataset(tmp_path)
        assert [s.frame_id for s in dataset.all_samples()] == ["a", "a", "b"]
        assert load_depth(dataset.weak[0].depth_path).values.tobytes() == maps["b"].values.tobytes()
        gt = read_pose_file(tmp_path / "gt_poses.jsonl")
        assert all(s.joints_3d.tobytes() == samples[0].joints_3d.tobytes() for s in gt)

    def test_write_dataset_refuses_a_sample_without_a_map_before_writing(self, tmp_path):
        """A dataset read back holds depth paths, not maps: write_dataset
        names the frame before it creates ``depth/`` or any file."""
        maps = DepthMap(np.full((120, 160), 2500.0))
        samples = [_sample("a", depth=maps), _sample("b", annotated=False)]
        with pytest.raises(ValueError, match="^sample b: no depth map to write$"):
            write_dataset(tmp_path / "out", split_dataset(samples))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("frame_id, altsep", [("../escaped", None), ("", None), (".", None), ("..", None),
                                                  ("a/b", None), ("a\0b", None), ("a\\b", "\\")])
    def test_write_dataset_refuses_a_frame_id_that_is_not_one_file_name(self, tmp_path, monkeypatch, frame_id, altsep):
        """A frame's map is ``depth/<frame_id>.dmap``: an id that would put it
        beside ``depth/``, hide it or need a subdirectory is named before
        anything is created (``altsep`` stands in for a system that has one)."""
        monkeypatch.setattr(os, "altsep", altsep)
        maps = DepthMap(np.full((120, 160), 2500.0))
        samples = [_sample("a", depth=maps), _sample(frame_id, annotated=False, depth=maps)]
        with pytest.raises(ValueError, match=f"^frame {re.escape(repr(frame_id))}: a frame id must be one plain file"):
            write_dataset(tmp_path / "out", split_dataset(samples))
        assert list(tmp_path.iterdir()) == []

    def test_write_dataset_writes_plain_frame_ids_inside_depth(self, tmp_path):
        maps = DepthMap(np.full((120, 160), 2500.0))
        ids = ["scene_0001.cam-2", "..a", "a b", "a..b"]
        assert write_dataset(tmp_path, split_dataset([_sample(f, depth=maps) for f in ids])) == 4
        assert sorted(p.name for p in tmp_path.iterdir()) == ["depth", "gt_poses.jsonl", "samples.jsonl"]
        assert sorted(p.name for p in (tmp_path / "depth").iterdir()) == sorted(f"{f}.dmap" for f in ids)
        assert [Path(s.depth_path) for s in load_dataset(tmp_path).all_samples()] == [
            tmp_path / "depth" / f"{f}.dmap" for f in ids]

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


# One bad value for each rule of the five dataclasses that check_fields
# guards, with the other arguments each needs.  The type rows give each
# class a bool or a string where a number goes, a value that is not a
# tuple in a tuple field, or an int joint name; they are JSON values, so
# fields_from_json must refuse them as the constructor does.
_NAN, _INF = float("nan"), float("inf")
_MLP, _CAM = {"input_dim": 1, "output_dim": 1}, asdict(CAM)
_TYPE_CASES = [
    (MlpConfig, _MLP, "dropout", True), (MlpConfig, _MLP, "dropout", "0.5"), (MlpConfig, _MLP, "hidden_dim", "8"),
    (TrainConfig, {}, "lambda_weight", True), (TrainConfig, {}, "base_lr", True), (TrainConfig, {}, "epochs", "3"),
    (SceneConfig, {}, "sensor_noise_mm", True), (SceneConfig, {}, "image_width", "160"),
    (SceneConfig, {}, "fx_range", 5), (SceneConfig, {}, "persons_range", (1, "3")),
    (SkeletonSpec, {}, "joint_names", (0, "neck")), (SkeletonSpec, {}, "root", True), (SkeletonSpec, {}, "knees", 9),
    (CameraIntrinsics, _CAM, "fx", True), (CameraIntrinsics, _CAM, "cx", "80"), (CameraIntrinsics, _CAM, "width", 160.0),
]
_RULE_CASES = [
    *[(MlpConfig, _MLP, field, value) for field, value in [
        ("input_dim", 0), ("output_dim", -1), ("hidden_dim", 0), ("num_blocks", -1), ("dropout", 1.0),
    ]],
    *[(TrainConfig, {}, field, value) for field, value in [
        ("epochs", 0), ("batch_size", 3), ("base_lr", 0.0), ("lr_decay", 1.5), ("lr_decay_every", 0),
        ("lambda_weight", -1.0), ("alpha", _INF), ("hidden_dim", 0), ("num_blocks", -1), ("dropout", _NAN),
        ("depth_hidden_dim", 0), ("depth_num_blocks", -1), ("seed", -1), ("zoom_min", 0.0), ("zoom_max", 0.5),
        *((name, 10**400) for name in ("base_lr", "lambda_weight", "alpha", "zoom_min", "zoom_max")),
    ]],
    *[(SceneConfig, {}, field, value) for field, value in [
        ("joint_jitter_deg", _NAN), ("fx_range", (300.0, 200.0)), ("root_depth_range", (0.0, 7000.0)),
        ("bone_scale_range", (1.2, 1.1)), ("occluder_size_range", (-1.0, 700.0)), ("image_width", 1),
        ("image_height", 0), ("yaw_range_deg", (30.0, -30.0)), ("occluder_depth_fraction", (0.5, 1.0)),
        ("persons_range", (0, 2)), ("occluder_range", (2, 1)), ("sensor_noise_mm", -1.0),
        ("detector_noise_px", -0.5), ("hole_probability", 1.0), ("visibility_margin_mm", 0.0),
        ("standing_probability", 1.5), ("fy_jitter", 1.0), ("root_margin", 0.6), ("background_depth", 0.0),
        ("principal_jitter", -0.1), ("min_scene_depth_mm", 7000.0), ("fx_range", [220.0, 300.0]),
    ]],
    *[(SkeletonSpec, {}, field, value) for field, value in [
        ("joint_names", ("a",)), ("root", 17), ("neck", -1), ("knees", (9,)), ("depth_subset", (0, 0)),
        ("parents", (-1,) * 16), ("parents", (0,) * 17), ("depth_subset", [0, 1]),
    ]],
    *[(CameraIntrinsics, _CAM, field, value) for field, value in [
        ("fx", 0.0), ("fy", -1.0), ("cx", _INF), ("cy", _NAN), ("fy", 10**400), ("width", 0), ("height", -5),
    ]],
    *_TYPE_CASES,
]


def _ids(cases):
    return [f"{c.__name__}-{f}-{v!r}" for c, _, f, v in cases]


class TestConfigChecks:
    @pytest.mark.parametrize("cls, base, field, value", _RULE_CASES, ids=_ids(_RULE_CASES))
    def test_each_rule_names_the_field_and_the_value(self, cls, base, field, value):
        with pytest.raises(ValueError) as info:
            cls(**{**base, field: value})
        message = str(info.value)
        assert message.startswith(f"{field} must be ") and message.endswith(f", got {value!r}")
        assert isinstance(info.value, ConfigError) == (cls is TrainConfig)

    @pytest.mark.parametrize("cls, base, field, value", _TYPE_CASES, ids=_ids(_TYPE_CASES))
    def test_json_and_code_refuse_a_value_alike(self, cls, base, field, value):
        """One type rule: fields_from_json leaves each value to the
        constructor, so both raise the same error for the same field."""
        blob = json.loads(json.dumps({**asdict(cls(**base)), field: value}))
        with pytest.raises(ValueError) as from_json:
            fields_from_json(cls, blob)
        with pytest.raises(ValueError) as in_code:
            cls(**{**base, field: value})
        assert (type(from_json.value), str(from_json.value)) == (type(in_code.value), str(in_code.value))
        assert str(in_code.value).startswith(f"{field} must be ")

    @pytest.mark.parametrize("cls, error", [(TrainConfig, ConfigError), (SceneConfig, ValueError)])
    @pytest.mark.parametrize("blob", [[1], None, 5])
    def test_from_dict_rejects_a_value_that_is_not_an_object(self, cls, error, blob):
        with pytest.raises(ValueError) as info:
            cls.from_dict(blob)
        assert type(info.value) is error
        assert str(info.value) == f"expected a JSON object of {cls.__name__} fields, got {type(blob).__name__}"
