"""Command line round trip: generate, train, predict, eval, gradcheck.

Everything is driven through ``main(argv)`` on a generated miniature
dataset, checking the files each stage leaves behind and the override
precedence of flags over config values.
"""

import contextlib
import hashlib
import json
import re
import shutil
from dataclasses import fields

import numpy as np
import pytest

from poselift import cli, compiled
from poselift.cli import build_parser, main
from poselift.data import read_pose_file, write_pose_file
from poselift.pipeline import ConfigError, TrainConfig, load_bundle
from poselift.skeleton import DegeneratePoseError, default_skeleton


# Computed with the code before the camera functions took per-row intrinsics.
GENERATE_DIGEST = "79c7f1bde173c5c5c93e3104ccd1ff7c772defa51a15ead98fc1a4c9926b3a13"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    config.write_text(json.dumps({
        "scene": {"persons_range": [1, 2], "n_annotated": 4, "n_weak": 2},
        "train": {
            "epochs": 1, "batch_size": 4, "hidden_dim": 32, "num_blocks": 1,
            "depth_hidden_dim": 32, "depth_num_blocks": 1, "dropout": 0.5,
            "lambda_weight": 0.001, "alpha": 2500.0, "zoom_max": 1.3,
        },
    }))
    data = root / "data"
    assert main(["generate", "--config", str(config), "--out", str(data),
                 "--seed", "11", "--n-annotated", "12", "--n-weak", "6"]) == 0
    model = root / "model.npz"
    log_file = root / "train_log.jsonl"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--out", str(model), "--log-file", str(log_file), "--epochs", "2"]) == 0
    pred = root / "pred.jsonl"
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(pred)]) == 0
    return {"root": root, "config": config, "data": data,
            "model": model, "log": log_file, "pred": pred}


class TestGenerate:
    def test_counts_follow_flags_over_config(self, workspace):
        samples = read_pose_file(workspace["data"] / "samples.jsonl")
        assert sum(s.is_annotated for s in samples) == 12
        assert sum(not s.is_annotated for s in samples) == 6

    def test_depth_maps_are_stored_once_per_frame(self, workspace):
        samples = read_pose_file(workspace["data"] / "samples.jsonl")
        frames = {s.frame_id for s in samples}
        maps = sorted((workspace["data"] / "depth").glob("*.dmap"))
        assert len(maps) == len(frames)
        raw = (workspace["data"] / "samples.jsonl").read_text().splitlines()[0]
        assert json.loads(raw)["depth_path"].startswith("depth/")

    def test_gt_file_carries_poses_for_weak_samples(self, workspace):
        gt = read_pose_file(workspace["data"] / "gt_poses.jsonl")
        assert len(gt) == 18
        assert all(s.joints_3d is not None for s in gt)

    @pytest.mark.parametrize("path", ["default", "numpy"])
    def test_output_keeps_its_bytes(self, tmp_path, numpy_passes, path):
        """sha256 over both pose files and every DMAP of a small seeded run,
        pinned when the camera arithmetic moved into ``geometry``; on the
        default path and with the numpy passes forced."""
        out = tmp_path / "gen"
        with numpy_passes() if path == "numpy" else contextlib.nullcontext():
            assert main(["generate", "--out", str(out), "--seed", "5", "--n-annotated", "6", "--n-weak", "4"]) == 0
        h = hashlib.sha256()
        for path in [out / "samples.jsonl", out / "gt_poses.jsonl", *sorted((out / "depth").glob("*.dmap"))]:
            h.update(path.relative_to(out).as_posix().encode())
            h.update(path.read_bytes())
        assert h.hexdigest() == GENERATE_DIGEST

    def test_stderr_names_the_render_path(self, tmp_path, capsys, numpy_passes):
        """Five frames hold the 6 + 4 samples; stdout and the files do
        not depend on the path."""
        argv = ["generate", "--seed", "5", "--n-annotated", "6", "--n-weak", "4"]
        assert main([*argv, "--out", str(tmp_path / "a")]) == 0
        default = capsys.readouterr()
        with numpy_passes():
            assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        forced = capsys.readouterr()
        path = "the compiled C loop" if shutil.which("cc") else "the numpy passes (no C compiler (cc) on PATH)"
        assert default.err == f"render_clean: 5 calls by {path}\n"
        assert forced.err == "render_clean: 5 calls by the numpy passes (forced by the test)\n"
        assert forced.out == default.out.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        for name in ("samples.jsonl", "gt_poses.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_progress_message(self, tmp_path, capsys):
        config = tmp_path / "scene.json"
        config.write_text(json.dumps({"persons_range": [1, 1]}))
        out = tmp_path / "tiny"
        assert main(["generate", "--config", str(config), "--out", str(out),
                     "--n-annotated", "2", "--n-weak", "1"]) == 0
        assert "wrote 2 annotated + 1 weak" in capsys.readouterr().out

    @pytest.mark.parametrize("text, message", [
        ('{"n_annotated": 2', "bad.json: invalid JSON config"),
        ('[["n_weak", 1]]', "bad.json: expected a JSON object of config fields, got list"),
        ('{"scene": [1, 2]}', "bad.json: expected a JSON object of config fields, got list"),
        ('{"n_annotated": 2.7}', "bad.json: config field 'n_annotated' must be an int >= 0, got 2.7"),
        ('{"n_weak": true}', "bad.json: config field 'n_weak' must be an int >= 0, got True"),
        ('{"scene": {"n_annotated": -1}}', "bad.json: config field 'n_annotated' must be an int >= 0, got -1"),
    ])
    def test_bad_config_file_is_named(self, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            main(["generate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--n-annotated", "--n-weak"])
    def test_negative_count_flag_is_named(self, tmp_path, flag):
        with pytest.raises(ValueError) as info:
            main(["generate", "--out", str(tmp_path / "out"), flag, "-1"])
        assert str(info.value) == f"{flag} must be >= 0, got -1"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_named_before_anything_is_written(self, tmp_path):
        with pytest.raises(ValueError) as info:
            main(["generate", "--out", str(tmp_path / "out"), "--seed", "-1", "--n-annotated", "1", "--n-weak", "0"])
        assert str(info.value) == "--seed must be >= 0, got -1"
        assert not (tmp_path / "out").exists()

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"n_weak": 1}')
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: config is not UTF-8 text: "):
            main(["generate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    def test_bad_scene_field_names_the_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"scene": {"image_width": "160", "n_weak": 1}}))
        with pytest.raises(ValueError) as info:
            main(["generate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert str(info.value) == f"{bad}: config field 'image_width' must be int, got '160'"
        assert not (tmp_path / "out").exists()

    def test_nan_scene_field_names_the_file_and_field(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"scene": {"sensor_noise_mm": NaN}}')
        with pytest.raises(ValueError) as info:
            main(["generate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert str(info.value) == f"{bad}: sensor_noise_mm must be finite, got nan"
        assert not (tmp_path / "out").exists()


class _TrainCalled(Exception):
    pass


class TestTrain:
    def test_flags_are_the_train_config_fields(self):
        train_parser = build_parser()._subparsers._group_actions[0].choices["train"]
        flags = {opt for action in train_parser._actions for opt in action.option_strings}
        own = {"-h", "--help", "--config", "--data", "--out", "--skeleton", "--log-file"}
        assert flags - own == {"--" + f.name.replace("_", "-") for f in fields(TrainConfig)}

    def test_absent_flags_keep_the_config_values(self, workspace, tmp_path, monkeypatch):
        seen = []

        def record(config, dataset, spec):
            seen.append(config)
            raise _TrainCalled

        monkeypatch.setattr(cli, "train", record)
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"epochs": 2, "alpha": 50}))
        for extra in ([], ["--epochs", "3", "--alpha", "7.5"]):
            with pytest.raises(_TrainCalled):
                main(["train", "--config", str(config), "--data", str(workspace["data"]),
                      "--out", str(tmp_path / "m")] + extra)
        assert [(c.epochs, c.alpha) for c in seen] == [(2, 50), (3, 7.5)]

    def test_a_config_setting_the_removed_grad_stats_switch_names_file_and_field(self, workspace, tmp_path):
        """The occlusion statistics are logged whenever the weak samples carry
        visibility labels, so a config that still asks for them is refused."""
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"train": {"epochs": 2, "track_weak_grad_stats": True}}))
        with pytest.raises(ValueError) as info:
            main(["train", "--config", str(config), "--data", str(workspace["data"]),
                  "--out", str(tmp_path / "m")])
        assert str(info.value) == f"{config}: unknown config fields: ['track_weak_grad_stats']"
        assert not (tmp_path / "m").exists()

    def test_epoch_flag_overrides_the_config(self, workspace):
        lines = workspace["log"].read_text().splitlines()
        assert len(lines) == 2  # config says 1 epoch, flag says 2
        entries = [json.loads(line) for line in lines]
        assert [e["epoch"] for e in entries] == [0, 1]
        assert all("loss" in e and "lr" in e for e in entries)

    def test_model_file_is_a_loadable_bundle(self, workspace):
        bundle = load_bundle(workspace["model"])
        with np.load(workspace["model"]) as npz:
            assert json.loads(str(npz["meta"]))["version"] == 2
        assert bundle.skeleton == default_skeleton()
        assert bundle.pose_config.hidden_dim == 32

    def test_flat_config_without_section_key(self, workspace, tmp_path):
        flat = tmp_path / "train.json"
        flat.write_text(json.dumps({"epochs": 1, "batch_size": 4, "hidden_dim": 32,
                                    "num_blocks": 1, "depth_hidden_dim": 32,
                                    "depth_num_blocks": 1, "zoom_max": 1.2}))
        out = tmp_path / "model.npz"
        assert main(["train", "--config", str(flat), "--data", str(workspace["data"]),
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_stderr_names_the_adam_path(self, workspace, tmp_path, capsys, numpy_passes):
        """One epoch of 6 steps updates two networks; stdout and the log
        file do not depend on the path."""
        argv = ["train", "--config", str(workspace["config"]), "--data", str(workspace["data"]),
                "--out", str(tmp_path / "m.npz"), "--log-file", str(tmp_path / "log.jsonl")]
        assert main(argv) == 0
        default, log = capsys.readouterr(), (tmp_path / "log.jsonl").read_bytes()
        with numpy_passes():
            assert main(argv) == 0
        forced = capsys.readouterr()
        path = "the compiled C loop" if shutil.which("cc") else "the numpy passes (no C compiler (cc) on PATH)"
        assert default.err == f"adam_update: 12 calls by {path}\n"
        assert forced.err == "adam_update: 12 calls by the numpy passes (forced by the test)\n"
        assert forced.out == default.out and (tmp_path / "log.jsonl").read_bytes() == log

    def test_bad_config_field_names_the_file_whatever_the_flags(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": "3"}}))
        for flags in ([], ["--epochs", "1"]):
            with pytest.raises(ConfigError) as info:
                main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                      "--out", str(tmp_path / "model.npz"), *flags])
            assert str(info.value) == f"{bad}: config field 'epochs' must be int, got '3'"
        assert not (tmp_path / "model.npz").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"train": {"lr_decay": -0.5}}', "lr_decay must be in (0, 1], got -0.5"),
        ('{"train": {"alpha": NaN}}', "alpha must be finite and > 0, got nan"),
        ('{"train": {"hidden_dim": 0}}', "hidden_dim must be >= 1, got 0"),
    ])
    def test_out_of_range_config_value_names_the_file_and_field(self, workspace, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ConfigError) as info:
            main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                  "--out", str(tmp_path / "model.npz")])
        assert str(info.value) == f"{bad}: {message}"
        assert not (tmp_path / "model.npz").exists()

    def test_negative_seed_names_the_flag_or_the_file(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"seed": -1}}))
        for args, message in [(["--seed", "-1"], "--seed must be >= 0, got -1"),
                              (["--config", str(bad)], f"{bad}: seed must be >= 0, got -1")]:
            with pytest.raises(ValueError) as info:
                main(["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "model.npz"), *args])
            assert str(info.value) == message
        assert not (tmp_path / "model.npz").exists()

    def test_unknown_config_field_is_rejected(self, workspace, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"train": {"epochs": 1, "momentum": 0.9}}))
        with pytest.raises(ConfigError, match="momentum"):
            main(["train", "--config", str(bad), "--data", str(workspace["data"]),
                  "--out", str(tmp_path / "model.npz")])


class TestPredict:
    def test_one_record_per_input_sample(self, workspace):
        preds = read_pose_file(workspace["pred"])
        samples = read_pose_file(workspace["data"] / "samples.jsonl")
        assert len(preds) == len(samples) == 18
        assert all(p.joints_3d is not None and p.joints_3d.shape == (17, 3) for p in preds)
        assert {p.frame_id for p in preds} == {s.frame_id for s in samples}


class TestEval:
    def test_report_table_and_json(self, workspace, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["eval", "--gt", str(workspace["data"] / "gt_poses.jsonl"),
                     "--pred", str(workspace["pred"]), "--out", str(report)]) == 0
        out = capsys.readouterr().out
        assert "A-MPJPE" in out and "Detection rate" in out
        blob = json.loads(report.read_text())
        assert set(blob) == {
            "a_mpjpe_mm", "r_mpjpe_mm", "a_3dpck_pct", "r_3dpck_pct",
            "detection_rate_pct", "matched_poses", "gt_poses", "detected_only",
        }
        assert blob["gt_poses"] == 18

    def test_optional_flags_smoke(self, workspace):
        assert main(["eval", "--gt", str(workspace["data"] / "gt_poses.jsonl"),
                     "--pred", str(workspace["pred"]), "--detected-only",
                     "--normalized-skeletons", "--match-threshold", "400"]) == 0

    @pytest.mark.parametrize("joints", [16, 10])
    def test_pose_with_the_wrong_joint_count_names_file_and_frame(self, workspace, tmp_path, joints):
        preds = read_pose_file(workspace["pred"])
        preds[-1].joints_2d = preds[-1].joints_2d[:joints]
        preds[-1].joints_3d = preds[-1].joints_3d[:joints]
        path = tmp_path / "pred.jsonl"
        write_pose_file(path, preds)
        message = f"{path}: a pose in frame {preds[-1].frame_id} has {joints} joints, the skeleton has 17"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            main(["eval", "--gt", str(workspace["data"] / "gt_poses.jsonl"), "--pred", str(path)])

    def test_degenerate_pose_under_normalized_skeletons_names_file_and_frame(self, workspace, tmp_path):
        gt = read_pose_file(workspace["data"] / "gt_poses.jsonl")
        gt[3].joints_3d = np.zeros_like(gt[3].joints_3d)
        path = tmp_path / "gt.jsonl"
        write_pose_file(path, gt)
        message = f"{path}: a pose in frame {gt[3].frame_id}: knee-to-neck distance is 0.0, cannot normalize"
        with pytest.raises(DegeneratePoseError, match=f"^{re.escape(message)}$"):
            main(["eval", "--gt", str(path), "--pred", str(workspace["pred"]), "--normalized-skeletons"])

    @pytest.mark.parametrize("flag, value, shown", [
        ("--pck-threshold", "nan", "nan"), ("--pck-threshold", "0", "0.0"),
        ("--match-threshold", "-5", "-5.0"), ("--match-threshold", "inf", "inf"),
    ])
    def test_bad_threshold_flag_is_named(self, workspace, flag, value, shown):
        with pytest.raises(ValueError) as info:
            main(["eval", "--gt", str(workspace["data"] / "gt_poses.jsonl"), "--pred", str(workspace["pred"]),
                  flag, value])
        assert str(info.value) == f"{flag} must be finite and > 0, got {shown}"

    def test_records_without_poses_are_rejected(self, workspace):
        with pytest.raises(ValueError, match="no joints_3d"):
            main(["eval", "--gt", str(workspace["data"] / "gt_poses.jsonl"),
                  "--pred", str(workspace["data"] / "samples.jsonl")])


class TestStderr:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_a_command_that_runs_no_compiled_loop_writes_nothing(self, workspace, tmp_path, capsys, command):
        """The workspace's generate and train ran both loops in this process
        first, so a report of every call so far would show up here;
        ``TestGradcheck`` checks gradcheck the same way."""
        argv = {"predict": ["--model", str(workspace["model"]), "--data", str(workspace["data"]),
                            "--out", str(tmp_path / "pred.jsonl")],
                "eval": ["--gt", str(workspace["data"] / "gt_poses.jsonl"), "--pred", str(workspace["pred"])]}
        assert {loop for loop, _ in compiled.runs()} == {"adam_update", "render_clean"}
        capsys.readouterr()
        assert main([command, *argv[command]]) == 0
        assert capsys.readouterr().err == ""


class TestGradcheck:
    def test_all_checks_pass(self, workspace, capsys):
        """Nothing on stderr, though the workspace ran both compiled loops."""
        assert main(["gradcheck", "--seed", "0"]) == 0
        out, err = capsys.readouterr()
        assert "gradient checks passed" in out
        assert "FAIL" not in out
        assert "max_rel_err" in out
        assert err == ""
