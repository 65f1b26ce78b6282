"""Command line round trip: generate, train, predict, eval, gradcheck.

Everything is driven through ``main(argv)`` on a generated miniature
dataset, checking the files each stage leaves behind and the override
precedence of flags over config values.
"""

import json
from dataclasses import fields

import pytest

from poselift import cli
from poselift.cli import build_parser, main
from poselift.data import read_pose_file
from poselift.pipeline import ConfigError, TrainConfig, load_bundle
from poselift.skeleton import default_skeleton


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
        ('{"n_annotated": 2.7}', "bad.json: config field 'n_annotated' must be int, got 2.7"),
        ('{"n_weak": true}', "bad.json: config field 'n_weak' must be int, got True"),
    ])
    def test_bad_config_file_is_named(self, tmp_path, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=message):
            main(["generate", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()


class _TrainCalled(Exception):
    pass


class TestTrain:
    def test_flags_are_the_train_config_fields(self):
        train_parser = build_parser()._subparsers._group_actions[0].choices["train"]
        flags = {opt for action in train_parser._actions for opt in action.option_strings}
        own = {"-h", "--help", "--config", "--data", "--out", "--skeleton", "--log-file"}
        assert flags - own == {"--" + f.name.replace("_", "-") for f in fields(TrainConfig)}

    def test_absent_bool_flag_keeps_the_config_value(self, workspace, tmp_path, monkeypatch):
        seen = []

        def record(config, dataset, spec):
            seen.append(config)
            raise _TrainCalled

        monkeypatch.setattr(cli, "train", record)
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"stop_weak_pose_gradient": True, "epochs": 2, "alpha": 50}))
        argv = ["train", "--config", str(config), "--data", str(workspace["data"]), "--out", str(tmp_path / "m")]
        for extra in ([], ["--track-weak-grad-stats", "--epochs", "3", "--alpha", "7.5"]):
            with pytest.raises(_TrainCalled):
                main(argv + extra)
        assert [(c.stop_weak_pose_gradient, c.track_weak_grad_stats, c.epochs, c.alpha) for c in seen] == [
            (True, False, 2, 50), (True, True, 3, 7.5)]

    def test_epoch_flag_overrides_the_config(self, workspace):
        lines = workspace["log"].read_text().splitlines()
        assert len(lines) == 2  # config says 1 epoch, flag says 2
        entries = [json.loads(line) for line in lines]
        assert [e["epoch"] for e in entries] == [0, 1]
        assert all("loss" in e and "lr" in e for e in entries)

    def test_model_file_is_a_loadable_bundle(self, workspace):
        bundle = load_bundle(workspace["model"])
        assert bundle.version == 2
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

    def test_records_without_poses_are_rejected(self, workspace):
        with pytest.raises(ValueError, match="no joints_3d"):
            main(["eval", "--gt", str(workspace["data"] / "gt_poses.jsonl"),
                  "--pred", str(workspace["data"] / "samples.jsonl")])


class TestGradcheck:
    def test_all_checks_pass(self, capsys):
        assert main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "gradient checks passed" in out
        assert "FAIL" not in out
        assert "max_rel_err" in out
