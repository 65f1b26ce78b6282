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

import contextlib
import dataclasses
import json
import re
import sys
import threading
import time

import numpy as np
import pytest

from poselift import gradcheck, nn, pipeline
from poselift.checks import fields_from_json
from poselift.data import Dataset, Sample, SampleBatch
from poselift.depth import DepthMap, save_depth
from poselift.geometry import CameraIntrinsics, zoom_augment
from poselift.losses import gm_grad, gm_loss
from poselift.pipeline import (
    ConfigError,
    ModelBundle,
    StandardizerStats,
    TrainConfig,
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
CAM = CameraIntrinsics(fx=270.0, fy=265.0, cx=80.0, cy=60.0, width=160, height=120)
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
    return generate_dataset(rng, SceneConfig(), 10, 8)


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
        batch = SampleBatch.from_samples([samples[1], probe], 17)
        x = build_inputs(batch, stats)
        assert x.shape == (2, 51)
        assert np.isfinite(x).all()
        assert x[1, 34 + 2] == 0.0 and x[1, 34 + 9] == 0.0
        assert np.isnan(batch.readouts[1, 2]) and np.isnan(batch.readouts[1, 9])
        assert x[1, 34 + 3] != 0.0
        assert not np.isnan(batch.readouts[0]).any() and (x[0, 34:] != 0.0).all()

    def test_standardize_round_trip(self):
        stats = _fit(_training_set(8))
        rng = np.random.Generator(np.random.Philox(6))
        vecs = rng.normal(0.0, 500.0, size=(5, 51))
        back = destandardize_output(standardize_output(vecs, stats), stats)
        np.testing.assert_allclose(back, vecs, rtol=0, atol=1e-9)


def _head_bundle(params, config, stats, spec=SPEC) -> ModelBundle:
    """A bundle holding only what the weak head reads: no pose network."""
    return ModelBundle(spec, None, None, config, params, stats)


class TestWeakHead:
    def _zeroed_head(self, stats, spec):
        config = nn.MlpConfig(input_dim=51, output_dim=len(spec.depth_subset),
                              hidden_dim=16, num_blocks=1, dropout=0.0)
        rng = np.random.Generator(np.random.Philox(7))
        params = nn.init_params(config, rng)
        params["fc_out.w"] = np.zeros_like(params["fc_out.w"])
        params["fc_out.b"] = np.zeros_like(params["fc_out.b"])
        return _head_bundle(params, config, stats, spec)

    def test_zeroed_network_reduces_to_z_plus_offset(self):
        """With the depth net silenced the head is exactly the predicted
        absolute joint z plus the calibrated sensor offset."""
        stats = _fit(_training_set(8))
        bundle = self._zeroed_head(stats, SPEC)
        rng = np.random.Generator(np.random.Philox(8))
        o_std = rng.normal(size=(3, 51))
        depths, _ = predicted_joint_depths(bundle, o_std)
        z_dims = np.arange(5, 45, 3)
        z_hat = stats.output_mean[z_dims] + stats.output_std[z_dims] * o_std[:, z_dims]
        root_z = stats.output_mean[2] + stats.output_std[2] * o_std[:, 2]
        expected = z_hat + root_z[:, None] + stats.depth_offset_mean
        np.testing.assert_allclose(depths, expected, rtol=1e-12)

    def test_zeroed_network_with_the_root_in_the_subset(self):
        """The root's own z is absolute, so the head reads it without
        adding the root to it as it does for the offsets."""
        spec = dataclasses.replace(SPEC, depth_subset=SPEC.depth_subset + (SPEC.root,))
        stats = fit_standardizer(SampleBatch.from_samples(_training_set(8), 17), spec)
        bundle = self._zeroed_head(stats, spec)
        o_std = np.random.Generator(np.random.Philox(8)).normal(size=(3, 51))
        depths, _ = predicted_joint_depths(bundle, o_std)
        z_dims = np.arange(5, 45, 3)
        z_hat = stats.output_mean[z_dims] + stats.output_std[z_dims] * o_std[:, z_dims]
        root_z = stats.output_mean[2] + stats.output_std[2] * o_std[:, 2]
        expected = np.column_stack([z_hat + root_z[:, None], root_z]) + stats.depth_offset_mean
        np.testing.assert_allclose(depths, expected, rtol=1e-12)

    def test_backward_matches_finite_differences(self):
        stats = _fit(_training_set(8))
        config = nn.MlpConfig(input_dim=51, output_dim=14, hidden_dim=16,
                              num_blocks=1, dropout=0.0)
        params = nn.init_params(config, np.random.Generator(np.random.Philox(9)))
        rng = np.random.Generator(np.random.Philox(10))
        o_std = rng.normal(size=(2, 51))
        bundle = _head_bundle(params, config, stats)
        depths, cache = predicted_joint_depths(bundle, o_std, train=True)  # eval mode keeps no cache
        d_depths = rng.normal(size=depths.shape)
        d_o = joint_depth_backward(bundle, d_depths, cache, nn.ParamVector(config))

        def value(o):
            d, _ = predicted_joint_depths(bundle, o)
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
        nan, inf = float("nan"), float("inf")
        for field, value in [
            ("base_lr", 0.0), ("base_lr", -1.0), ("base_lr", nan), ("base_lr", inf),
            ("lr_decay", -0.5), ("lr_decay", 0.0), ("lr_decay", 1.5), ("lr_decay", nan),
            ("lr_decay_every", 0), ("dropout", 1.0), ("dropout", -0.1), ("dropout", nan),
            ("hidden_dim", 0), ("depth_hidden_dim", 0), ("num_blocks", -1), ("depth_num_blocks", -1),
            ("alpha", nan), ("alpha", inf), ("lambda_weight", nan), ("lambda_weight", inf), ("seed", -1),
            ("epochs", 2.5), ("batch_size", 8.0), ("seed", True),
        ]:
            with pytest.raises(ConfigError, match=f"^{field} must be .*, got {value!r}$"):
                TrainConfig(**{field: value})
        with pytest.raises(ConfigError, match="zoom range"):
            TrainConfig(zoom_max=inf)

    def test_dict_round_trip(self):
        config = _tiny_config(seed=3)
        blob = json.loads(json.dumps(dataclasses.asdict(config)))
        assert TrainConfig.from_dict(blob) == config
        assert fields_from_json(TrainConfig, blob) == config

    def test_unknown_field_is_rejected(self):
        d = dataclasses.asdict(_tiny_config())
        d["learning_rate"] = 0.1
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig.from_dict(d)

    @pytest.mark.parametrize("field, value", [
        ("epochs", "40"), ("epochs", 2.0), ("epochs", True), ("base_lr", "0.1"), ("alpha", False),
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

    def test_weak_term_moves_the_pose_network(self, tiny_dataset):
        """With lambda above zero the weak gradient reaches the pose
        network, which then leaves the lambda-zero trajectory."""
        plain, _ = train(_tiny_config(lambda_weight=0.0), tiny_dataset, SPEC)
        coupled, _ = train(_tiny_config(), tiny_dataset, SPEC)
        assert any(
            not np.array_equal(coupled.pose_params[name], plain.pose_params[name])
            for name in coupled.pose_params
        )

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_one_gradient_buffer_per_network_per_call(self, tiny_dataset, monkeypatch, epochs):
        """Every backward pass writes into one of two buffers, made once:
        train constructs four ParamVectors (parameters and gradients of
        each network) however many steps it runs."""
        made = []

        class Counted(nn.ParamVector):
            def __init__(self, config, flat=None):
                super().__init__(config, flat)
                made.append(self)

        written = []
        backward = nn.backward

        def spy(params, config, cache, dy, grads, accumulate=False):
            written.append(grads)
            return backward(params, config, cache, dy, grads, accumulate)

        monkeypatch.setattr(nn, "ParamVector", Counted)
        monkeypatch.setattr(nn, "backward", spy)
        bundle, logs = train(_tiny_config(epochs=epochs), tiny_dataset, SPEC)
        buffers = {id(grads) for grads in written}
        assert len(written) == 3 * epochs * logs[0]["steps"]
        assert len(buffers) == 2
        assert len(made) == 4
        assert {id(v) for v in made} == buffers | {id(bundle.pose_params), id(bundle.depth_params)}

    def test_weak_grad_stats_are_logged(self, tiny_dataset):
        _, logs = train(_tiny_config(), tiny_dataset, SPEC)
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

    @pytest.mark.parametrize("target", ["predicted_joint_depths", "joint_depth_backward"])
    def test_divergence_in_the_weak_head_names_jointdepthnet(self, tiny_dataset, monkeypatch, target):
        """A failure in the head's forward pass, and a non-finite head
        gradient caught by the depth net's Adam step, both name it."""
        if target == "predicted_joint_depths":
            def broken(*args, **kwargs):
                raise FloatingPointError("non-finite activations in forward pass")
            message = "non-finite activations in forward pass"
        else:
            original = pipeline.joint_depth_backward

            def broken(bundle, d_depths, cache, grads):
                d_o = original(bundle, d_depths, cache, grads)
                grads["fc_out.b"][0] = np.nan
                return d_o
            message = "non-finite gradient for fc_out.b"
        monkeypatch.setattr(pipeline, target, broken)
        with pytest.raises(FloatingPointError) as info:
            train(_tiny_config(), tiny_dataset, SPEC)
        assert str(info.value) == (
            f"training diverged at epoch 0, step 0, in jointdepthnet: {message}; all parameters finite"
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
        train(_tiny_config(zoom_min=1.2, zoom_max=1.5), dataset, SPEC)
        assert [snapshot(s) for s in dataset.all_samples()] == before
        assert bare.depth is None and bare.depth_readouts is None and from_map.depth_readouts is None

    def test_a_weak_set_without_labels_logs_no_grad_stats(self, tiny_dataset):
        """One weak sample without eval_visibility, as every pose file's
        sample is: training runs as with labels, and its log holds the
        other fields with the same values and no weak_grad_* key."""
        unlabelled = [dataclasses.replace(tiny_dataset.weak[0], eval_visibility=None)] + tiny_dataset.weak[1:]
        bundle, logs = train(_tiny_config(), Dataset(tiny_dataset.annotated, unlabelled), SPEC)
        labelled, labelled_logs = train(_tiny_config(), tiny_dataset, SPEC)
        assert logs == [{k: v for k, v in e.items() if not k.startswith("weak_grad")} for e in labelled_logs]
        assert bundle.pose_params.flat.tobytes() == labelled.pose_params.flat.tobytes()
        assert bundle.depth_params.flat.tobytes() == labelled.depth_params.flat.tobytes()

    def test_without_a_weak_set_no_grad_stats_are_logged(self, tiny_dataset):
        _, logs = train(_tiny_config(), Dataset(tiny_dataset.annotated, []), SPEC)
        assert [set(e) for e in logs] == [{"epoch", "lr", "loss", "loss_l1", "loss_weak", "steps"}] * len(logs)

    def test_without_annotated_samples_raises(self, tiny_dataset):
        weak_only = Dataset(annotated=[], weak=tiny_dataset.weak)
        with pytest.raises(ConfigError, match="annotated"):
            train(_tiny_config(), weak_only, SPEC)


def _trained_bits(config, dataset) -> tuple:
    """The log text and both parameter vectors' bytes of one ``train``."""
    bundle, logs = train(config, dataset, SPEC)
    return json.dumps(logs), bundle.pose_params.flat.tobytes(), bundle.depth_params.flat.tobytes()


def _divergence_in_both_schedules(schedule, run) -> list[str]:
    """The divergence message ``run()`` raises with the caller alone,
    then with the worker thread."""
    def message():
        with pytest.raises(FloatingPointError) as info:
            run()
        return str(info.value)

    return schedule.both(message)


class TestTrainSchedules:
    """``train`` runs a step's annotated half, the depth net's Adam update
    and the lower element range of the pose net's update on a worker
    thread when the process has two CPUs and BLAS runs one thread;
    everything it returns or raises is the same as with the caller
    alone."""

    def test_the_annotated_half_runs_on_the_worker(self, tiny_dataset, monkeypatch, schedule):
        threads = []
        original = pipeline.annotated_step

        def spy(*args):
            threads.append(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(pipeline, "annotated_step", spy)
        for side_by_side in (False, True):
            threads.clear()
            schedule(side_by_side)
            train(_tiny_config(), tiny_dataset, SPEC)
            assert len(set(threads)) == 1
            assert (threads[0] != threading.get_ident()) is side_by_side

    @pytest.mark.parametrize("weak", [True, False], ids=["weak", "no-weak-set"])
    def test_each_update_runs_where_the_rule_says(self, tiny_dataset, monkeypatch, schedule, weak):
        """Each Adam update is two element ranges.  With the worker thread,
        the pose net's lower range runs there and its upper range in the
        caller, and the depth net's update, already on the worker, runs
        both there; with the caller alone, it runs all four."""
        calls = []
        original = nn._adam_range

        def spy(update, arrays, lo, hi, *rest):
            calls.append((arrays["params"], lo, hi, threading.get_ident()))
            return original(update, arrays, lo, hi, *rest)

        monkeypatch.setattr(nn, "_adam_range", spy)
        dataset = Dataset(tiny_dataset.annotated, tiny_dataset.weak if weak else [])
        for side_by_side in (False, True):
            calls.clear()
            schedule(side_by_side)
            bundle, logs = train(_tiny_config(), dataset, SPEC)
            updates, caller = sum(e["steps"] for e in logs), threading.get_ident()

            def ranges(flat):  # (lo, hi, on the worker) of every range of one network
                return sorted((lo, hi, thread != caller) for p, lo, hi, thread in calls if p is flat)

            def split(flat, lower, upper):
                n = flat.size
                return [(0, n // 2, lower)] * updates + [(n // 2, n, upper)] * updates

            pose, depth = bundle.pose_params.flat, bundle.depth_params.flat
            assert ranges(pose) == split(pose, side_by_side, False)
            assert ranges(depth) == (split(depth, side_by_side, side_by_side) if weak else [])

    @pytest.mark.parametrize("kwargs, weak", [
        ({"lambda_weight": 1.0}, "labelled"),
        ({}, "none"),
        ({}, "unlabelled"),
    ], ids=["weak", "no-weak-set", "no-labels"])
    def test_same_bits(self, tiny_dataset, schedule, kwargs, weak):
        samples = {"labelled": tiny_dataset.weak, "none": [],
                   "unlabelled": [dataclasses.replace(s, eval_visibility=None) for s in tiny_dataset.weak]}[weak]
        dataset = Dataset(tiny_dataset.annotated, samples)
        inline, side_by_side = schedule.both(lambda: _trained_bits(_tiny_config(**kwargs), dataset))
        assert inline == side_by_side

    def test_same_bits_when_threads_switch_often(self, tiny_dataset, schedule):
        """A thread switch every microsecond gives the worker's and the
        caller's calls every chance to interleave."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            inline, side_by_side = schedule.both(lambda: _trained_bits(_tiny_config(epochs=3), tiny_dataset))
        finally:
            sys.setswitchinterval(interval)
        assert inline == side_by_side

    @pytest.mark.parametrize("pose, depth, net, message", [
        (True, False, "posenet", "non-finite gradient for fc_in.w"),
        (False, True, "jointdepthnet", "non-finite gradient for fc_out.b"),
        (True, True, "jointdepthnet", "non-finite gradient for fc_out.b"),
    ], ids=["posenet", "jointdepthnet", "both-updates"])
    def test_a_non_finite_gradient_is_named_alike(self, tiny_dataset, monkeypatch, schedule, pose, depth, net,
                                                  message):
        """Gradients made non-finite at epoch 1, step 2: when both Adam
        updates fail, the depth net's error wins."""
        annotated, weak = pipeline.annotated_step, pipeline.weak_step

        def broken_annotated(bundle, config, batch, epoch, step, grads):
            value = annotated(bundle, config, batch, epoch, step, grads)
            if pose and (epoch, step) == (1, 2):
                grads["fc_in.w"][0, 0] = np.nan
            return value

        def broken_weak(bundle, config, batch, epoch, step, grads):
            result = weak(bundle, config, batch, epoch, step, grads)
            if depth and (epoch, step) == (1, 2):
                grads["fc_out.b"][0] = np.inf
            return result

        monkeypatch.setattr(pipeline, "annotated_step", broken_annotated)
        monkeypatch.setattr(pipeline, "weak_step", broken_weak)
        messages = _divergence_in_both_schedules(schedule, lambda: train(_tiny_config(), tiny_dataset, SPEC))
        assert messages == [f"training diverged at epoch 1, step 2, in {net}: {message}; all parameters finite"] * 2

    def test_when_both_halves_fail_the_annotated_error_wins(self, tiny_dataset, monkeypatch, schedule):
        def failing(name, delay):
            def fail(bundle, config, batch, epoch, step, *grads):
                time.sleep(delay)  # the annotated half fails after the weak one
                raise FloatingPointError(f"{name} failed")
            return fail

        monkeypatch.setattr(pipeline, "annotated_step", failing("annotated half", 0.05))
        monkeypatch.setattr(pipeline, "predicted_joint_depths", failing("weak head", 0.0))
        messages = _divergence_in_both_schedules(schedule, lambda: train(_tiny_config(), tiny_dataset, SPEC))
        assert messages == ["training diverged at epoch 0, step 0, in posenet: annotated half failed; "
                            "all parameters finite"] * 2

    def test_an_error_in_the_head_backward_pass_names_jointdepthnet(self, tiny_dataset, monkeypatch, schedule):
        """The head's backward pass runs inside :func:`weak_step`, so its
        error names the depth net like one from the head's forward pass."""
        def overflow(bundle, d_depths, cache, grads):
            raise FloatingPointError("overflow encountered in multiply")

        monkeypatch.setattr(pipeline, "joint_depth_backward", overflow)
        messages = _divergence_in_both_schedules(schedule, lambda: train(_tiny_config(), tiny_dataset, SPEC))
        assert messages == ["training diverged at epoch 0, step 0, in jointdepthnet: overflow encountered in multiply; "
                            "all parameters finite"] * 2

    def test_the_callers_errstate_reaches_the_worker(self, tiny_dataset, schedule):
        """Weights of about 1e300 after the first update overflow the
        next forward pass of both halves; under ``over="raise"`` that
        ends training the same way in both schedules."""
        def run():
            with np.errstate(over="raise"):
                train(_tiny_config(base_lr=1e300), tiny_dataset, SPEC)

        messages = _divergence_in_both_schedules(schedule, run)
        assert messages[0] == messages[1]
        assert messages[0].startswith("training diverged at epoch 0, step 1, in posenet: overflow encountered")


@pytest.fixture(scope="module")
def many_samples():
    """701 annotated samples and the standardizer fit on them."""
    samples = _training_set(n=701, seed=5)
    return samples, _fit(samples)


def _untrained_bundle(stats, width: int) -> ModelBundle:
    """A freshly initialized bundle whose pose network is ``width`` wide
    (two blocks, as the default network)."""
    return pipeline.init_bundle(TrainConfig(hidden_dim=width, depth_hidden_dim=8), stats, SPEC)


@pytest.fixture(scope="module")
def wide_bundle(many_samples):
    return _untrained_bundle(many_samples[1], 1024)


def _predicted_bits(bundle, samples) -> tuple:
    """The frame ids and the bytes of every predicted pose."""
    frame_ids, preds = predict_frames(bundle, samples)
    return frame_ids, [pose.tobytes() for poses in preds for pose in poses]


def _with_fc_in_weight(bundle, value) -> ModelBundle:
    """A copy of ``bundle`` whose pose network weighs input 0 by ``value``
    in its first hidden unit."""
    params = nn.ParamVector(bundle.pose_config, bundle.pose_params.flat.copy())
    params["fc_in.w"][0, 0] = value
    return dataclasses.replace(bundle, pose_params=params)


def _with_far_joint(samples, index, u) -> list:
    """``samples`` with joint 0 of sample ``index`` moved to column ``u``."""
    joints = samples[index].joints_2d.copy()
    joints[0, 0] = u
    return [*samples[:index], dataclasses.replace(samples[index], joints_2d=joints), *samples[index + 1:]]


class TestPredictSchedules:
    """``predict_frames`` runs a large batch as two row blocks, the first
    on a worker thread, when the process has two CPUs and BLAS runs one
    thread; everything it returns or raises is the same as with one pass
    in the caller."""

    @pytest.mark.parametrize("width, sizes", [
        (64, [*range(1, 9), *range(640, 651), 700]),
        (1024, [1, 2, 3, 41, 42, 43, 64, 65, 400, 401]),
    ])
    def test_same_bits(self, many_samples, wide_bundle, schedule, width, sizes):
        """Width-64 batches split from 644 rows and width-1024 batches
        from 42, so both sides of the rule are covered."""
        samples, stats = many_samples
        bundle = wide_bundle if width == 1024 else _untrained_bundle(stats, width)
        for n in sizes:
            inline, side_by_side = schedule.both(lambda: _predicted_bits(bundle, samples[:n]))
            assert inline == side_by_side, n

    @pytest.mark.parametrize("width, n, split", [
        (64, 643, False), (64, 644, True), (1024, 3, False), (1024, 41, False), (1024, 42, True), (1024, 65, True),
    ])
    def test_the_worker_runs_a_block_only_when_the_rule_says(self, many_samples, wide_bundle, monkeypatch, schedule,
                                                             width, n, split):
        samples, stats = many_samples
        bundle = wide_bundle if width == 1024 else _untrained_bundle(stats, width)
        calls = []  # (in the caller's thread, rows) per call
        original, caller = nn.forward, threading.get_ident()

        def spy(params, config, x, *args, **kwargs):
            calls.append((threading.get_ident() == caller, len(x)))
            return original(params, config, x, *args, **kwargs)

        monkeypatch.setattr(nn, "forward", spy)
        for side_by_side in (False, True):
            calls.clear()
            schedule(side_by_side)
            predict_frames(bundle, samples[:n])
            if side_by_side and split:
                assert sorted(calls) == [(False, n // 2), (True, n - n // 2)]
            else:
                assert calls == [(True, n)]

    @pytest.mark.parametrize("index", [0, 63], ids=["first-block", "second-block"])
    def test_a_non_finite_activation_is_raised_alike(self, many_samples, wide_bundle, schedule, index):
        """One sample's input overflows the first hidden unit to inf; the
        other rows' squares overflow too but normalize to finite values."""
        bundle = _with_fc_in_weight(wide_bundle, 1e300)
        samples = _with_far_joint(many_samples[0][:64], index, 1e12)

        def message():
            with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
                predict_frames(bundle, samples)
            return str(info.value)

        assert schedule.both(message) == ["non-finite activations in forward pass"] * 2

    def test_when_both_blocks_fail_the_first_blocks_error_wins(self, many_samples, wide_bundle, monkeypatch, schedule):
        def fail(params, config, x, *args, **kwargs):
            if len(x) == 32:
                time.sleep(0.05)  # the first block fails after the second
            raise FloatingPointError(f"block of {len(x)} rows failed")

        monkeypatch.setattr(nn, "forward", fail)
        schedule(True)
        with pytest.raises(FloatingPointError, match="^block of 32 rows failed$"):
            predict_frames(wide_bundle, many_samples[0][:65])

    def test_the_callers_errstate_reaches_the_worker(self, many_samples, wide_bundle, schedule):
        """A first-block sample whose first hidden unit is about 1e157
        overflows LayerNorm's squares in the ``layer_norm`` loop; under
        ``over="raise"`` that raises in both schedules, where the default
        would only warn."""
        bundle = _with_fc_in_weight(wide_bundle, 1e150)
        samples = _with_far_joint(many_samples[0][:64], 0, 1e9)

        def message():
            with np.errstate(over="raise"), pytest.raises(FloatingPointError) as info:
                predict_frames(bundle, samples)
            return str(info.value)

        assert schedule.both(message) == ["overflow encountered in layer_norm"] * 2

    def test_a_process_has_one_worker_thread_at_most(self, many_samples, wide_bundle, tiny_dataset, monkeypatch,
                                                     schedule):
        """Whatever the calls and errors: 20 predictions, trainings with and
        without a weak set, and a prediction and trainings that raise all
        run their first calls on one thread, and start no other."""
        schedule(True)
        before, counts, workers = threading.active_count(), [], set()
        original = nn.forward

        def spy(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                workers.add(threading.current_thread())
            return original(*args, **kwargs)

        def run(call, *args, error=None):
            with np.errstate(all="ignore"), pytest.raises(error) if error else contextlib.nullcontext():
                call(*args)
            counts.append(threading.active_count())

        monkeypatch.setattr(nn, "forward", spy)
        for _ in range(20):
            run(predict_frames, wide_bundle, many_samples[0][:64])
        for dataset in (tiny_dataset, Dataset(tiny_dataset.annotated, [])):
            run(train, _tiny_config(), dataset, SPEC)
            run(train, _tiny_config(base_lr=1e300), dataset, SPEC, error=FloatingPointError)
        bad = _with_fc_in_weight(wide_bundle, 1e300)
        run(predict_frames, bad, _with_far_joint(many_samples[0][:64], 0, 1e12), error=FloatingPointError)
        assert max(counts) <= before + 1 and len(workers) == 1


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

    def test_no_samples_give_no_frames(self, tiny_bundle, schedule):
        assert schedule.both(lambda: predict_frames(tiny_bundle, [])) == [([], [])] * 2


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
        ("skeleton", lambda d: d["parents"].__setitem__(slice(2, 4), [3, 2]), "parents must be one tree"),
        ("skeleton", lambda d: d.pop("root"), "root"),
        ("skeleton", lambda d: d.update(pelvis=14), "pelvis"),
    ])
    def test_bad_config_field_is_named(self, tiny_bundle, tmp_path, section, edit, field):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", lambda meta, arrays: edit(meta[section]))
        with pytest.raises(ValueError, match=f"b.npz.*{field}"):
            load_bundle(tmp_path / "b.npz")

    @pytest.mark.parametrize("net", ["posenet", "jointdepthnet"])
    def test_bad_network_config_names_the_network(self, tiny_bundle, tmp_path, net):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", lambda meta, arrays: meta[net].update(hidden_dim="8"))
        with pytest.raises(ValueError) as info:
            load_bundle(tmp_path / "b.npz")
        assert str(info.value).endswith(
            f"b.npz: cannot load model bundle: {net}: hidden_dim must be int, got '8'")

    @pytest.mark.parametrize("net, field, value, need", [
        ("posenet", "hidden_dim", 0, "positive"),
        ("jointdepthnet", "num_blocks", -1, ">= 0"),
    ])
    def test_bad_network_value_names_the_network_and_the_value(self, tiny_bundle, tmp_path, net, field, value, need):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", lambda meta, arrays: meta[net].update({field: value}))
        with pytest.raises(ValueError) as info:
            load_bundle(tmp_path / "b.npz")
        assert str(info.value).endswith(f"b.npz: cannot load model bundle: {net}: {field} must be {need}, got {value}")

    @pytest.mark.parametrize("net, field, delta", [
        ("posenet", "input_dim", -1), ("posenet", "output_dim", 3), ("jointdepthnet", "output_dim", -1),
    ])
    def test_network_widths_must_fit_the_skeleton(self, tiny_bundle, tmp_path, net, field, delta):
        """Refused when loaded, naming the path and the network, not first
        at prediction time inside nn.forward."""
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        need = getattr(getattr(tiny_bundle, {"posenet": "pose_config", "jointdepthnet": "depth_config"}[net]), field)

        def edit(meta, arrays):  # the vector is resized to the new width, so only the width rule can refuse it
            meta[net][field] += delta
            arrays[net] = np.zeros(nn.ParamVector(fields_from_json(nn.MlpConfig, meta[net])).flat.size)

        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", edit)
        with pytest.raises(ValueError) as info:
            load_bundle(tmp_path / "b.npz")
        assert str(info.value) == (f"{tmp_path / 'b.npz'}: cannot load model bundle: {net}: "
                                   f"{field} must be {need} for the skeleton, got {need + delta}")

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

    @pytest.mark.parametrize("where, index, value, message", [
        ("output_std", 3, np.nan, "stats output_std has non-finite values"),
        ("depth_offset_mean", 0, np.inf, "stats depth_offset_mean has non-finite values"),
        ("input_std", 5, 0.0, "stats input_std must be positive"),
        ("depth_offset_std", 1, -2.0, "stats depth_offset_std must be positive"),
        ("posenet", 0, np.nan, "posenet: non-finite parameters"),
        ("jointdepthnet", -1, -np.inf, "jointdepthnet: non-finite parameters"),
    ])
    def test_non_finite_or_non_positive_values_are_rejected(self, tiny_bundle, tmp_path, where, index, value, message):
        def edit(meta, arrays):
            (arrays if where in arrays else meta["stats"])[where][index] = value

        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", edit)
        with pytest.raises(ValueError) as info:
            load_bundle(tmp_path / "b.npz")
        assert str(info.value) == f"{tmp_path / 'b.npz'}: cannot load model bundle: {message}"

    @pytest.mark.parametrize("edit, message", [
        (lambda meta: meta.update(stats=None), "stats must be a JSON object, got NoneType"),
        (lambda meta: meta.update(stats=[1.0, 2.0]), "stats must be a JSON object, got list"),
        (lambda meta: meta["stats"].update(input_mean={}), "field 'stats.input_mean' must hold numbers, got {}"),
        (lambda meta: meta["stats"]["output_std"].__setitem__(2, "1.5"),
         "field 'stats.output_std' must hold numbers, got '1.5'"),
    ], ids=["stats-null", "stats-list", "stats-field-object", "stats-element-string"])
    def test_stats_that_are_not_json_numbers_are_rejected(self, tiny_bundle, tmp_path, edit, message):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        _edited_copy(tmp_path / "a.npz", tmp_path / "b.npz", lambda meta, arrays: edit(meta))
        with pytest.raises(ValueError) as info:
            load_bundle(tmp_path / "b.npz")
        assert str(info.value) == f"{tmp_path / 'b.npz'}: cannot load model bundle: {message}"

    @pytest.mark.parametrize("meta", [[1, 2], "v2", None])
    def test_meta_that_is_not_an_object_is_rejected(self, tiny_bundle, tmp_path, meta):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        with np.load(tmp_path / "a.npz") as npz:
            arrays = {name: npz[name] for name in npz.files}
        with open(tmp_path / "b.npz", "wb") as fh:
            np.savez(fh, **{**arrays, "meta": np.array(json.dumps(meta))})
        with pytest.raises(ValueError) as info:
            load_bundle(tmp_path / "b.npz")
        assert str(info.value) == (f"{tmp_path / 'b.npz'}: cannot load model bundle: "
                                   f"meta must be a JSON object, got {type(meta).__name__}")

    def test_meta_nested_too_deeply_is_rejected(self, tiny_bundle, tmp_path):
        """Deeper than the recursion limit, json.loads raised a bare RecursionError."""
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        with np.load(tmp_path / "a.npz") as npz:
            arrays = {name: npz[name] for name in npz.files}
        with open(tmp_path / "b.npz", "wb") as fh:
            np.savez(fh, **{**arrays, "meta": np.array("[" * 100_000)})
        path = re.escape(str(tmp_path / "b.npz"))
        with pytest.raises(ValueError, match=f"^{path}: cannot load model bundle: maximum recursion depth exceeded"):
            load_bundle(tmp_path / "b.npz")

    def test_truncated_or_foreign_file_is_rejected(self, tiny_bundle, tmp_path):
        save_bundle(tmp_path / "a.npz", tiny_bundle)
        data = (tmp_path / "a.npz").read_bytes()
        for name, content in (("cut.npz", data[: len(data) // 2]), ("tail.npz", data[:-10]),
                              ("empty.npz", b""), ("text.npz", b"not a bundle")):
            (tmp_path / name).write_bytes(content)
            with pytest.raises(ValueError, match=name):
                load_bundle(tmp_path / name)


class TestWeakStep:
    def test_equals_an_explicit_mask_reference(self):
        """The NaN readouts that ``weak_step`` hands the loss give the bytes
        of the explicit-mask form: targets zeroed where invalid, the
        penalty on the masked residual, then the head and the pose
        backward pass, with zoom and dropout on."""
        bundle, config, batch = gradcheck._pipeline_setup(3)
        config = dataclasses.replace(config, alpha=2500.0, lambda_weight=0.3)
        epoch, step = 1, 2
        valid = ~np.isnan(batch.readouts[:, SUBSET])
        assert (~valid).any() and valid.any() and config.dropout > 0.0 and config.zoom_max > 1.0
        annotated = np.random.default_rng(4).normal(size=bundle.pose_params.flat.shape)
        pose_grads, depth_grads = nn.ParamVector(bundle.pose_config), nn.ParamVector(bundle.depth_config)
        pose_grads.flat[:] = annotated
        value, d_depths, pose_backward = pipeline.weak_step(bundle, config, batch, epoch, step, depth_grads)
        pose_backward(pose_grads)

        def stream(role):
            return pipeline._step_rng(config.seed, epoch, step, role)

        weak = zoom_augment(batch, stream(pipeline._WEAK_ZOOM).uniform(config.zoom_min, config.zoom_max, len(batch)))
        x = build_inputs(weak, bundle.stats)
        targets = np.where(valid, weak.readouts[:, SUBSET], 0.0)
        o, pose_cache = nn.forward(bundle.pose_params, bundle.pose_config, x, train=True,
                                   rng=stream(pipeline._WEAK_DROPOUT))
        depths, head_cache = predicted_joint_depths(bundle, o, train=True, rng=stream(pipeline._HEAD_DROPOUT))
        residual = np.where(valid, depths - targets, 0.0)
        ref_value = config.lambda_weight * float(gm_loss(residual[valid], config.alpha).sum())
        ref_d_depths = np.where(valid, config.lambda_weight * gm_grad(residual, config.alpha), 0.0)
        ref_depth_grads, ref_pose_grads = nn.ParamVector(bundle.depth_config), nn.ParamVector(bundle.pose_config)
        ref_pose_grads.flat[:] = annotated
        d_o = joint_depth_backward(bundle, ref_d_depths, head_cache, ref_depth_grads)
        nn.backward(bundle.pose_params, bundle.pose_config, pose_cache, d_o, ref_pose_grads, accumulate=True)

        assert value == ref_value
        assert d_depths.tobytes() == ref_d_depths.tobytes()
        assert depth_grads.flat.tobytes() == ref_depth_grads.flat.tobytes()
        assert pose_grads.flat.tobytes() == ref_pose_grads.flat.tobytes()


class TestGradientSuiteChecksTheTrainingStep:
    """The end-to-end checks run the step functions that ``train`` runs,
    so a 1% error in a gradient ``train`` uses fails them."""

    def test_weak_path_fails_on_a_scaled_head_gradient(self, monkeypatch):
        original = pipeline.joint_depth_backward
        monkeypatch.setattr(pipeline, "joint_depth_backward",
                            lambda bundle, d_depths, *args: original(bundle, 1.01 * d_depths, *args))
        assert not gradcheck.check_weak_path(100).passed

    def test_annotated_path_fails_on_a_scaled_l1_gradient(self, monkeypatch):
        original = pipeline.l1_pose_loss

        def scaled(pred, gt):
            value, grad = original(pred, gt)
            return value, 1.01 * grad

        monkeypatch.setattr(pipeline, "l1_pose_loss", scaled)
        assert not gradcheck.check_annotated_path(90).passed
