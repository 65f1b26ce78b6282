"""Training pipeline tests.

The standardizer is pinned by constructed datasets (known offset
clusters, constant dimensions, designed invalid readouts), the weak
supervision head by a closed form with a zeroed output layer plus
finite differences, and the training loop by reproducibility and
equivalence properties: a zero-weight weak term leaves the pose network
on exactly the trajectory of annotated-only training, and stopping the
weak gradient at the pose network gives the same pose parameters while
the depth network still learns.
"""

import dataclasses
import json

import numpy as np
import pytest

from poselift import nn
from poselift.data import Dataset, Sample, SampleBatch, fields_from_json
from poselift.depth import DepthMap, save_depth
from poselift.geometry import CameraIntrinsics
from poselift.pipeline import (
    ConfigError,
    StandardizerStats,
    TrainConfig,
    _head_z_dims,
    _robust_offset,
    build_inputs,
    destandardize_output,
    fit_standardizer,
    joint_depth_backward,
    load_bundle,
    predict_frames,
    predict_pose,
    predicted_joint_depths,
    save_bundle,
    standardize_output,
    train,
)
from poselift.skeleton import default_skeleton
from poselift.synth import SceneConfig, generate_dataset

SPEC = default_skeleton()
CAM = CameraIntrinsics(fx=270.0, fy=265.0, cx=80.0, cy=60.0)
SUBSET = np.asarray(SPEC.depth_subset, dtype=int)


def _annotated(rng, offset=-50.0, offset_noise=0.0, readouts=None):
    joints_2d = rng.uniform(0.0, 150.0, size=(17, 2))
    joints_3d = rng.normal(0.0, 300.0, size=(17, 3)) + [0.0, 0.0, 3500.0]
    if readouts is None:
        readouts = joints_3d[:, 2] + offset + rng.normal(0.0, offset_noise, 17)
    readouts = np.asarray(readouts, dtype=np.float64)
    return Sample(
        frame_id=f"f{rng.integers(1 << 30)}",
        camera=CAM,
        width=160,
        height=120,
        joints_2d=joints_2d,
        joints_3d=joints_3d,
        depth_readouts=readouts,
        depth_valid=np.isfinite(readouts),
    )


def _training_set(n=12, seed=0, **kwargs):
    rng = np.random.Generator(np.random.Philox(seed))
    return [_annotated(rng, **kwargs) for _ in range(n)]


def _fit(samples):
    return fit_standardizer(SampleBatch.from_samples(samples, 17), SPEC)


@pytest.fixture(scope="module")
def tiny_dataset():
    rng = np.random.Generator(np.random.Philox(77))
    return generate_dataset(rng, SceneConfig(), 10, 8, SPEC)


def _tiny_config(**kwargs):
    base = dict(
        epochs=2, batch_size=4, hidden_dim=32, num_blocks=1,
        depth_hidden_dim=32, depth_num_blocks=1, dropout=0.5,
        lambda_weight=1e-3, alpha=2500.0, zoom_min=1.0, zoom_max=1.3, seed=0,
    )
    base.update(kwargs)
    return TrainConfig(**base)


class TestRobustOffset:
    def test_recovers_the_inlier_cluster(self):
        rng = np.random.Generator(np.random.Philox(5))
        col = np.concatenate([rng.uniform(-55.0, -35.0, 30), np.full(20, -900.0)])
        fit = _robust_offset(rng.permutation(col))
        assert fit is not None
        mean, std = fit
        assert -60.0 < mean < -30.0
        assert std < 15.0

    def test_all_out_of_window_is_none(self):
        assert _robust_offset(np.full(20, -900.0)) is None
        assert _robust_offset(np.full(20, 400.0)) is None

    def test_too_few_values_is_none(self):
        assert _robust_offset(np.array([-40.0])) is None
        assert _robust_offset(np.full(5, np.nan)) is None


class TestFitStandardizer:
    def test_needs_two_samples(self):
        with pytest.raises(ConfigError, match="at least two"):
            _fit(_training_set(1))

    def test_rejects_unannotated_samples(self):
        samples = _training_set(3)
        samples[1].joints_3d = None
        with pytest.raises(ConfigError, match="annotated"):
            _fit(samples)

    def test_rejects_constant_input_dimension(self):
        samples = _training_set(2)
        clone = dataclasses.replace(samples[0], frame_id="copy")
        with pytest.raises(ConfigError, match="constant"):
            _fit([samples[0], clone])

    def test_rejects_constant_output_dimension(self):
        samples = _training_set(6, offset_noise=5.0)
        shared = samples[0].joints_3d.copy()
        for i, sample in enumerate(samples):
            sample.joints_3d = shared
            sample.depth_readouts = shared[:, 2] - 50.0 + float(i)
        with pytest.raises(ConfigError, match="output dimension"):
            _fit(samples)

    def test_rejects_readout_dim_with_one_valid_value(self):
        samples = _training_set(6)
        for sample in samples[1:]:
            sample.depth_readouts[3] = np.nan
            sample.depth_valid = np.isfinite(sample.depth_readouts)
        with pytest.raises(ConfigError, match="fewer than two valid values"):
            _fit(samples)

    def test_exact_offsets_and_std_floor(self):
        """Readouts exactly z - 45 give offset mean -45; the zero spread
        is floored so the weak head keeps a usable scale."""
        stats = _fit(_training_set(8, offset=-45.0))
        np.testing.assert_allclose(stats.depth_offset_mean, -45.0, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(stats.depth_offset_std, np.ones(len(SUBSET)))

    def test_always_obstructed_joint_falls_back_to_the_pooled_offset(self):
        samples = _training_set(10, offset=-50.0)
        for sample in samples:
            sample.depth_readouts[0] = sample.joints_3d[0, 2] - 900.0
        stats = _fit(samples)
        assert stats.depth_offset_mean[0] == pytest.approx(-50.0, abs=1e-9)
        np.testing.assert_allclose(stats.depth_offset_mean[1:], -50.0, rtol=0, atol=1e-9)

    def test_no_usable_offsets_anywhere_uses_the_default(self):
        stats = _fit(_training_set(8, offset=-900.0))
        np.testing.assert_array_equal(stats.depth_offset_mean, np.full(len(SUBSET), -40.0))
        np.testing.assert_array_equal(stats.depth_offset_std, np.full(len(SUBSET), 30.0))

    def test_stats_dict_round_trip(self):
        stats = _fit(_training_set(8))
        back = StandardizerStats.from_dict(json.loads(json.dumps(stats.to_dict())))
        for name in ("input_mean", "input_std", "output_mean", "output_std",
                     "depth_offset_mean", "depth_offset_std"):
            np.testing.assert_array_equal(getattr(back, name), getattr(stats, name))


class TestBuildInput:
    def test_invalid_readouts_are_imputed_to_zero(self):
        samples = _training_set(8)
        stats = _fit(samples)
        probe = samples[0]
        probe.depth_readouts[(2, 9),] = np.nan
        probe.depth_valid = np.isfinite(probe.depth_readouts)
        x, valid = build_inputs(SampleBatch.from_samples([samples[1], probe], 17), stats)
        assert x.shape == (2, 51) and valid.shape == (2, 17)
        assert np.isfinite(x).all()
        assert x[1, 34 + 2] == 0.0 and x[1, 34 + 9] == 0.0
        assert not valid[1, 2] and not valid[1, 9]
        assert x[1, 34 + 3] != 0.0
        assert valid[0].all() and (x[0, 34:] != 0.0).all()

    def test_standardize_round_trip(self):
        stats = _fit(_training_set(8))
        rng = np.random.Generator(np.random.Philox(6))
        vecs = rng.normal(0.0, 500.0, size=(5, 51))
        back = destandardize_output(standardize_output(vecs, stats), stats)
        np.testing.assert_allclose(back, vecs, rtol=0, atol=1e-9)


class TestWeakHead:
    def test_head_z_dims_layout(self):
        np.testing.assert_array_equal(_head_z_dims(SPEC), np.arange(5, 45, 3))

    def test_head_z_dims_with_root_in_subset(self):
        spec = dataclasses.replace(SPEC, depth_subset=SPEC.depth_subset + (SPEC.root,))
        dims = _head_z_dims(spec)
        np.testing.assert_array_equal(dims[:-1], np.arange(5, 45, 3))
        assert dims[-1] == 2

    def _zeroed_head(self, stats, spec):
        config = nn.MlpConfig(input_dim=51, output_dim=len(spec.depth_subset),
                              hidden_dim=16, num_blocks=1, dropout=0.0)
        rng = np.random.Generator(np.random.Philox(7))
        params = nn.init_params(config, rng)
        params["fc_out.w"] = np.zeros_like(params["fc_out.w"])
        params["fc_out.b"] = np.zeros_like(params["fc_out.b"])
        return params, config

    def test_zeroed_network_reduces_to_z_plus_offset(self):
        """With the depth net silenced the head is exactly the predicted
        absolute joint z plus the calibrated sensor offset."""
        stats = _fit(_training_set(8))
        params, config = self._zeroed_head(stats, SPEC)
        rng = np.random.Generator(np.random.Philox(8))
        o_std = rng.normal(size=(3, 51))
        depths, _ = predicted_joint_depths(o_std, params, config, stats, SPEC)
        z_dims = np.arange(5, 45, 3)
        z_hat = stats.output_mean[z_dims] + stats.output_std[z_dims] * o_std[:, z_dims]
        root_z = stats.output_mean[2] + stats.output_std[2] * o_std[:, 2]
        expected = z_hat + root_z[:, None] + stats.depth_offset_mean
        np.testing.assert_allclose(depths, expected, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        stats = _fit(_training_set(8))
        config = nn.MlpConfig(input_dim=51, output_dim=14, hidden_dim=16,
                              num_blocks=1, dropout=0.0)
        params = nn.init_params(config, np.random.Generator(np.random.Philox(9)))
        rng = np.random.Generator(np.random.Philox(10))
        o_std = rng.normal(size=(2, 51))
        depths, cache = predicted_joint_depths(o_std, params, config, stats, SPEC)
        d_depths = rng.normal(size=depths.shape)
        _, d_o = joint_depth_backward(d_depths, cache, params, config, stats)

        def value(o):
            d, _ = predicted_joint_depths(o, params, config, stats, SPEC)
            return float((d * d_depths).sum())

        eps = 1e-6
        for b, i in [(0, 2), (0, 5), (1, 17), (1, 44), (0, 50)]:
            plus = o_std.copy(); plus[b, i] += eps
            minus = o_std.copy(); minus[b, i] -= eps
            numeric = (value(plus) - value(minus)) / (2 * eps)
            assert d_o[b, i] == pytest.approx(numeric, rel=1e-5, abs=1e-8)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=5)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainConfig(zoom_min=1.5, zoom_max=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(zoom_min=0.0)
        with pytest.raises(ConfigError):
            TrainConfig(lambda_weight=-0.1)
        with pytest.raises(ConfigError):
            TrainConfig(alpha=0.0)

    def test_dict_round_trip(self):
        config = _tiny_config(seed=3, stop_weak_pose_gradient=True)
        blob = json.loads(json.dumps(dataclasses.asdict(config)))
        assert TrainConfig.from_dict(blob) == config
        assert fields_from_json(TrainConfig, blob) == config

    def test_unknown_field_is_rejected(self):
        d = dataclasses.asdict(_tiny_config())
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize("field, value", [
        ("epochs", "40"), ("epochs", 2.0), ("epochs", True), ("base_lr", "0.1"),
        ("stop_weak_pose_gradient", 1),
    ])
    def test_wrongly_typed_value_names_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig.from_dict({field: value})

    def test_integer_is_accepted_for_a_float_field(self):
        assert TrainConfig.from_dict({"base_lr": 1, "alpha": 50}).base_lr == 1


class TestTrain:
    def test_smoke_and_bundle_round_trip(self, tiny_dataset, tmp_path):
        bundle, logs = train(_tiny_config(), tiny_dataset, SPEC)
        assert len(logs) == 2
        for i, entry in enumerate(logs):
            assert entry["epoch"] == i
            assert entry["steps"] == 5  # ceil(10 annotated / (4 // 2))
            for key in ("lr", "loss", "loss_l1", "loss_weak"):
                assert np.isfinite(entry[key])
        assert logs[0]["loss"] == logs[0]["loss_l1"] + logs[0]["loss_weak"]

        preds = [p for poses in predict_frames(bundle, tiny_dataset.annotated)[1] for p in poses]
        assert len(preds) == 10
        for pose in preds:
            assert pose.shape == (17, 3) and np.isfinite(pose).all()

        path = tmp_path / "model.json"
        save_bundle(path, bundle)
        back = load_bundle(path)
        for name in bundle.pose_params:
            assert back.pose_params[name].tobytes() == bundle.pose_params[name].tobytes()
        for name in bundle.depth_params:
            assert back.depth_params[name].tobytes() == bundle.depth_params[name].tobytes()
        assert back.skeleton == bundle.skeleton
        reloaded = [p for poses in predict_frames(back, tiny_dataset.annotated)[1] for p in poses]
        for a, b in zip(preds, reloaded):
            np.testing.assert_array_equal(a, b)

    def test_bit_reproducible_across_runs(self, tiny_dataset):
        bundle_a, logs_a = train(_tiny_config(seed=4), tiny_dataset, SPEC)
        bundle_b, logs_b = train(_tiny_config(seed=4), tiny_dataset, SPEC)
        assert json.dumps(logs_a) == json.dumps(logs_b)
        for name in bundle_a.pose_params:
            assert bundle_a.pose_params[name].tobytes() == bundle_b.pose_params[name].tobytes()
        for name in bundle_a.depth_params:
            assert bundle_a.depth_params[name].tobytes() == bundle_b.depth_params[name].tobytes()

    def test_zero_weight_matches_annotated_only_training(self, tiny_dataset):
        """With lambda zero the weak half contributes nothing: the pose
        network follows the same trajectory as training without weak
        data at half the batch size (same annotated samples per step)."""
        with_weak = Dataset(annotated=tiny_dataset.annotated, weak=tiny_dataset.weak)
        without = Dataset(annotated=tiny_dataset.annotated, weak=[])
        bundle_a, _ = train(_tiny_config(lambda_weight=0.0, batch_size=8), with_weak, SPEC)
        bundle_b, _ = train(_tiny_config(lambda_weight=0.0, batch_size=4), without, SPEC)
        for name in bundle_a.pose_params:
            np.testing.assert_array_equal(bundle_a.pose_params[name], bundle_b.pose_params[name])

    def test_stop_weak_pose_gradient_freezes_the_pose_path(self, tiny_dataset):
        """Stopping the weak gradient at the pose network reproduces the
        lambda-zero pose parameters exactly, while the depth network
        still trains on the weak term."""
        stopped, _ = train(_tiny_config(stop_weak_pose_gradient=True), tiny_dataset, SPEC)
        plain, _ = train(_tiny_config(lambda_weight=0.0), tiny_dataset, SPEC)
        coupled, _ = train(_tiny_config(), tiny_dataset, SPEC)
        for name in stopped.pose_params:
            np.testing.assert_array_equal(stopped.pose_params[name], plain.pose_params[name])
        assert any(
            not np.array_equal(stopped.depth_params[name], plain.depth_params[name])
            for name in stopped.depth_params
        )
        assert any(
            not np.array_equal(coupled.pose_params[name], plain.pose_params[name])
            for name in coupled.pose_params
        )

    def test_weak_grad_stats_are_logged(self, tiny_dataset):
        _, logs = train(_tiny_config(track_weak_grad_stats=True), tiny_dataset, SPEC)
        for entry in logs:
            for key in ("weak_grad_visible", "weak_grad_occluded"):
                assert entry[key] >= 0.0
            assert isinstance(entry["weak_grad_visible_n"], int)
            assert isinstance(entry["weak_grad_occluded_n"], int)
            total = entry["weak_grad_visible_n"] + entry["weak_grad_occluded_n"]
            assert 0 < total <= entry["steps"] * 2 * 14

    @pytest.mark.parametrize("base_lr, lambda_weight, found", [
        # The first update moves every weight by about 1e300: the weights stay
        # finite and the next forward pass overflows.
        (1e300, 1e-3, "all parameters finite"),
        # A strong weak term gives gradients above one, so lr * gradient
        # overflows and the update itself leaves infinite weights.
        (1.7e308, 1e3, "first non-finite parameter fc_in.w"),
    ])
    def test_divergence_names_epoch_step_network_and_parameter(self, tiny_dataset, base_lr, lambda_weight, found):
        config = _tiny_config(base_lr=base_lr, lambda_weight=lambda_weight)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError) as info:
            train(config, tiny_dataset, SPEC)
        assert str(info.value) == (
            f"training diverged at epoch 0, step 1, in posenet: non-finite activations in forward pass; {found}"
        )

    def test_leaves_the_dataset_samples_unchanged(self, tiny_dataset, tmp_path):
        """Training reads readouts it lacks from the maps and DMAP files
        but writes nothing onto the caller's samples."""
        def snapshot(sample):
            state = {}
            for name, value in vars(sample).items():
                if isinstance(value, DepthMap):
                    value = (id(value), value.values.tobytes())
                elif isinstance(value, np.ndarray):
                    value = (id(value), value.tobytes())
                state[name] = value
            return state

        save_depth(tmp_path / "f.dmap", tiny_dataset.weak[0].depth)
        bare = dataclasses.replace(tiny_dataset.weak[0], depth=None, depth_path=str(tmp_path / "f.dmap"),
                                   depth_readouts=None, depth_valid=None)
        from_map = dataclasses.replace(tiny_dataset.weak[1], depth_readouts=None, depth_valid=None)
        dataset = Dataset(annotated=list(tiny_dataset.annotated), weak=[bare, from_map] + tiny_dataset.weak[2:])
        before = [snapshot(s) for s in dataset.all_samples()]
        train(_tiny_config(zoom_min=1.2, zoom_max=1.5, track_weak_grad_stats=True), dataset, SPEC)
        assert [snapshot(s) for s in dataset.all_samples()] == before
        assert bare.depth is None and bare.depth_readouts is None and from_map.depth_readouts is None

    def test_weak_grad_stats_need_visibility(self, tiny_dataset):
        weak = [dataclasses.replace(tiny_dataset.weak[0], eval_visibility=None)] + tiny_dataset.weak[1:]
        with pytest.raises(ConfigError, match="eval_visibility"):
            train(_tiny_config(track_weak_grad_stats=True), Dataset(tiny_dataset.annotated, weak), SPEC)

    def test_without_annotated_samples_raises(self, tiny_dataset):
        weak_only = Dataset(annotated=[], weak=tiny_dataset.weak)
        with pytest.raises(ConfigError, match="annotated"):
            train(_tiny_config(), weak_only, SPEC)


class TestPredictFrames:
    def test_groups_follow_first_appearance(self, tiny_dataset):
        bundle, _ = train(_tiny_config(epochs=1), tiny_dataset, SPEC)
        samples = [
            dataclasses.replace(tiny_dataset.annotated[0], frame_id="b"),
            dataclasses.replace(tiny_dataset.annotated[1], frame_id="a"),
            dataclasses.replace(tiny_dataset.annotated[2], frame_id="b"),
        ]
        frame_ids, preds = predict_frames(bundle, samples)
        assert frame_ids == ["b", "a"]
        assert [len(p) for p in preds] == [2, 1]
        # One batched forward pass against three batch-1 passes: BLAS may
        # round differently, so agreement is to 1e-9 mm, not bit for bit.
        for pred, sample in ((preds[0][0], samples[0]), (preds[0][1], samples[2]), (preds[1][0], samples[1])):
            np.testing.assert_allclose(pred, predict_pose(bundle, sample), rtol=0, atol=1e-9)

    def test_no_samples_give_no_frames(self, tiny_bundle):
        assert predict_frames(tiny_bundle, []) == ([], [])


@pytest.fixture(scope="module")
def tiny_bundle(tiny_dataset):
    bundle, _ = train(_tiny_config(epochs=1), tiny_dataset, SPEC)
    return bundle


def _edited_copy(src, dst, edit):
    """Copy a saved bundle, letting ``edit(meta, arrays)`` change it on the way."""
    with np.load(src) as npz:
        arrays = {name: npz[name] for name in npz.files}
    meta = json.loads(str(arrays.pop("meta")))
    edit(meta, arrays)
    with open(dst, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)


class TestBundleFormat:
    def test_writes_exactly_the_given_path(self, tiny_bundle, tmp_path):
        save_bundle(tmp_path / "model", tiny_bundle)
        assert [p.name for p in tmp_path.iterdir()] == ["model"]
        back = load_bundle(tmp_path / "model")
        assert back.pose_params.flat.tobytes() == tiny_bundle.pose_params.flat.tobytes()
        assert back.depth_params.flat.tobytes() == tiny_bundle.depth_params.flat.tobytes()
        for name, value in vars(tiny_bundle.stats).items():
            assert getattr(back.stats, name).tobytes() == value.tobytes()
        assert (back.pose_config, back.depth_config) == (tiny_bundle.pose_config, tiny_bundle.depth_config)

    def test_version_tamper_is_rejected(self, tiny_bundle, tmp_path):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", lambda meta, arrays: meta.update(version=99))
        with pytest.raises(ValueError, match="b.npz.*unsupported model version 99"):
            load_bundle(tmp_path / "b.npz")

    @pytest.mark.parametrize("section, edit, field", [
        ("posenet", lambda d: d.update(hidden_dim="64"), "hidden_dim"),
        ("jointdepthnet", lambda d: d.pop("dropout"), "dropout"),
        ("posenet", lambda d: d.update(width=64), "width"),
        ("skeleton", lambda d: d["parents"].__setitem__(0, "16"), "parents"),
        ("skeleton", lambda d: d.pop("root"), "root"),
        ("skeleton", lambda d: d.update(pelvis=14), "pelvis"),
    ])
    def test_bad_config_field_is_named(self, tiny_bundle, tmp_path, section, edit, field):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", lambda meta, arrays: edit(meta[section]))
        with pytest.raises(ValueError, match=f"b.npz.*{field}"):
            load_bundle(tmp_path / "b.npz")

    def test_version_1_json_checkpoint_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 1, "posenet": {"config": {}, "params": {}}}))
        with pytest.raises(ValueError, match="model.json.*unsupported, retrain"):
            load_bundle(path)

    def test_vector_length_must_match_its_config(self, tiny_bundle, tmp_path):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz",
                     lambda meta, arrays: arrays.update(jointdepthnet=arrays["jointdepthnet"][:-1]))
        with pytest.raises(ValueError, match="b.npz.*layout needs"):
            load_bundle(tmp_path / "b.npz")

    def test_stats_sizes_must_match_the_skeleton(self, tiny_bundle, tmp_path):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz",
                     lambda meta, arrays: meta["stats"]["depth_offset_std"].pop())
        with pytest.raises(ValueError, match="b.npz.*depth_offset_std"):
            load_bundle(tmp_path / "b.npz")

    def test_truncated_or_foreign_file_is_rejected(self, tiny_bundle, tmp_path):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        data = (tmp_path / "a.npz").read_bytes()
        for name, content in (("cut.npz", data[: len(data) // 2]), ("tail.npz", data[:-10]),
                              ("empty.npz", b""), ("text.npz", b"not a bundle")):
            (tmp_path / name).write_bytes(content)
            with pytest.raises(ValueError, match=name):
                load_bundle(tmp_path / name)
