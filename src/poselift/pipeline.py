"""Training and inference around the two networks.

The pose network lifts [normalized 2D joints, per-joint depth readouts]
to an absolute 3D pose expressed as root + relative offsets, everything
standardized to zero mean and unit variance.  During training a second
network predicts, from the pose network's output, how the depth sensor
should see each of the stable joints; comparing that against the actual
readouts through the robust penalty turns unannotated RGB-D frames into
a weak supervision signal.  The depth network is ignored at inference.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import nn
from .data import Dataset, Sample, SampleBatch, fields_from_json
from .geometry import zoom_augment
from .losses import RobustLossConfig, l1_pose_loss, total_loss
from .skeleton import SkeletonSpec, default_skeleton, pose_to_vector, vector_to_pose

BUNDLE_VERSION = 2


class ConfigError(ValueError):
    """Raised for unusable training configurations or datasets."""


@dataclass
class StandardizerStats:
    """Per-dimension statistics fixed on the annotated training set.

    Inputs are [2J normalized 2D coordinates, J depth readouts]; outputs
    are [root, J-1 relative offsets] flattened.  The depth offset stats
    describe (sensor readout - joint z) for the depth-supervised subset
    and give the weak head a well-scaled parameterization.
    """

    input_mean: np.ndarray
    input_std: np.ndarray
    output_mean: np.ndarray
    output_std: np.ndarray
    depth_offset_mean: np.ndarray
    depth_offset_std: np.ndarray

    def to_dict(self) -> dict:
        return {
            "input_mean": self.input_mean.tolist(),
            "input_std": self.input_std.tolist(),
            "output_mean": self.output_mean.tolist(),
            "output_std": self.output_std.tolist(),
            "depth_offset_mean": self.depth_offset_mean.tolist(),
            "depth_offset_std": self.depth_offset_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "StandardizerStats":
        return cls(**{f.name: np.asarray(d[f.name], dtype=np.float64) for f in fields(cls)})


def _raw_inputs(batch: SampleBatch) -> np.ndarray:
    """Un-standardized features (N, 3J): normalized 2D joints, then readouts
    (NaN where invalid).  Normalization is that of ``normalize_2d``."""
    intrinsics = batch.intrinsics[:, None, :]
    normalized = (batch.joints_2d - intrinsics[..., 2:]) / intrinsics[..., :2]
    return np.concatenate([normalized.reshape(len(batch), 2 * normalized.shape[1]), batch.readouts], axis=1)


_OFFSET_WINDOW = (-300.0, 150.0)
_OFFSET_INLIER_MM = 100.0


def _robust_offset(col: np.ndarray) -> tuple[float, float] | None:
    """Mean and std of the unobstructed cluster of readout-minus-z offsets."""
    col = col[np.isfinite(col)]
    window = col[(col > _OFFSET_WINDOW[0]) & (col < _OFFSET_WINDOW[1])]
    if window.size < 2:
        return None
    anchor = float(np.median(window))
    inliers = col[np.abs(col - anchor) <= _OFFSET_INLIER_MM]
    if inliers.size < 2:
        return None
    return float(inliers.mean()), float(inliers.std())


def fit_standardizer(batch: SampleBatch, spec: SkeletonSpec) -> StandardizerStats:
    """Fit all statistics on an annotated batch.

    Depth readout dimensions are fit on valid readouts only.  Constant
    or empty dimensions are rejected: a network fed zero-variance inputs
    or trained toward zero-variance targets cannot be de-standardized.
    """
    if len(batch) < 2:
        raise ConfigError("need at least two annotated samples to fit the standardizer")
    if batch.joints_3d is None:
        raise ConfigError("fit_standardizer needs annotated samples")
    raw_mat = _raw_inputs(batch)
    out_mat = pose_to_vector(batch.joints_3d, spec)
    subset = np.asarray(spec.depth_subset, dtype=int)
    off_mat = batch.readouts[:, subset] - batch.joints_3d[:, subset, 2]

    counts = np.isfinite(raw_mat).sum(axis=0)
    if np.any(counts < 2):
        bad = int(np.argmin(counts))
        raise ConfigError(f"input dimension {bad} has fewer than two valid values")
    input_mean = np.nanmean(raw_mat, axis=0)
    input_std = np.nanstd(raw_mat, axis=0)
    if np.any(input_std < 1e-12):
        bad = int(np.argmin(input_std))
        raise ConfigError(f"input dimension {bad} is constant across the training set")
    output_mean = out_mat.mean(axis=0)
    output_std = out_mat.std(axis=0)
    if np.any(output_std < 1e-12):
        bad = int(np.argmin(output_std))
        raise ConfigError(f"output dimension {bad} is constant across the training set")

    # Per-joint offset stats, falling back to the pooled offset when a
    # joint has too few usable readouts.  Readouts at joints hidden
    # behind another surface are arbitrarily far off, so the stats are
    # fit on the unobstructed cluster only: anchor on the median inside
    # a physically plausible window (a body shell is at most a few
    # radii plus sensor noise away) and keep offsets near that anchor.
    # The std gets a floor so the weak head's scale never collapses.
    pooled = _robust_offset(off_mat.ravel())
    if pooled is None:
        pooled = (-40.0, 30.0)
    k = off_mat.shape[1]
    offset_mean = np.full(k, pooled[0])
    offset_std = np.full(k, pooled[1])
    for j in range(k):
        fit = _robust_offset(off_mat[:, j])
        if fit is not None:
            offset_mean[j], offset_std[j] = fit
    offset_std = np.maximum(offset_std, 1.0)
    return StandardizerStats(
        input_mean=input_mean,
        input_std=input_std,
        output_mean=output_mean,
        output_std=output_std,
        depth_offset_mean=offset_mean,
        depth_offset_std=offset_std,
    )


def build_inputs(batch: SampleBatch, stats: StandardizerStats):
    """Standardized network inputs (N, 3J) and the readout validity (N, J).

    Invalid depth readouts are imputed with the standardized mean (zero)
    so they carry no signal.
    """
    x = (_raw_inputs(batch) - stats.input_mean) / stats.input_std
    x[np.isnan(x)] = 0.0
    return x, batch.valid


def standardize_output(pose_vecs: np.ndarray, stats: StandardizerStats) -> np.ndarray:
    return (pose_vecs - stats.output_mean) / stats.output_std


def destandardize_output(o_std: np.ndarray, stats: StandardizerStats) -> np.ndarray:
    return o_std * stats.output_std + stats.output_mean


def _head_z_dims(spec: SkeletonSpec) -> np.ndarray:
    """Output-vector z dimension of each depth-supervised joint.

    The output layout is [root xyz, relative offsets]; a joint's
    absolute z is root z plus (for non-root joints) its relative z.
    """
    dims = []
    for j in spec.depth_subset:
        if j == spec.root:
            dims.append(2)
        else:
            rel = j if j < spec.root else j - 1
            dims.append(3 + 3 * rel + 2)
    return np.asarray(dims, dtype=int)


def predicted_joint_depths(
    o_std: np.ndarray,
    depth_params: dict,
    depth_config: nn.MlpConfig,
    stats: StandardizerStats,
    spec: SkeletonSpec,
    train: bool = False,
    rng: np.random.Generator | None = None,
):
    """Expected sensor depth at the stable joints, from the predicted pose.

    The depth network predicts the standardized deviation of the sensor
    value from the predicted joint z, so an untrained head already puts
    the estimate on the body surface; what it learns is the
    pose-dependent part (which side faces the camera, self-occlusion).
    Returns (depths (B, K), cache for the backward pass).
    """
    jdn_out, jdn_cache = nn.forward(depth_params, depth_config, o_std, train=train, rng=rng)
    z_dims = _head_z_dims(spec)
    root_is_subset = np.asarray(spec.depth_subset) == spec.root
    z_hat = stats.output_mean[z_dims] + stats.output_std[z_dims] * o_std[:, z_dims]
    root_z = stats.output_mean[2] + stats.output_std[2] * o_std[:, 2]
    z_abs = np.where(root_is_subset, z_hat, z_hat + root_z[:, None])
    depths = z_abs + stats.depth_offset_mean + stats.depth_offset_std * jdn_out
    cache = {"jdn_cache": jdn_cache, "z_dims": z_dims, "root_is_subset": root_is_subset}
    return depths, cache


def joint_depth_backward(
    d_depths: np.ndarray,
    cache: dict,
    depth_params: dict,
    depth_config: nn.MlpConfig,
    stats: StandardizerStats,
):
    """Gradients of the weak head: returns (depth-net grads, grad wrt o_std)."""
    d_jdn = d_depths * stats.depth_offset_std
    jdn_grads, d_o = nn.backward(depth_params, depth_config, cache["jdn_cache"], d_jdn)
    z_dims = cache["z_dims"]
    root_is_subset = cache["root_is_subset"]
    d_o = d_o.copy()
    np.add.at(d_o, (slice(None), z_dims), d_depths * stats.output_std[z_dims])
    d_o[:, 2] += (d_depths * stats.output_std[2] * (~root_is_subset)).sum(axis=1)
    return jdn_grads, d_o


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    base_lr: float = 0.001
    lr_decay: float = 0.96
    lr_decay_every: int = 4
    lambda_weight: float = 1.0
    alpha: float = 100.0
    hidden_dim: int = 1024
    num_blocks: int = 2
    dropout: float = 0.5
    depth_hidden_dim: int = 1024
    depth_num_blocks: int = 2
    zoom_min: float = 1.0
    zoom_max: float = 1.5
    seed: int = 0
    stop_weak_pose_gradient: bool = False
    track_weak_grad_stats: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 2 or self.batch_size % 2 != 0:
            raise ConfigError("batch_size must be an even number >= 2")
        if not 0.0 < self.zoom_min <= self.zoom_max:
            raise ConfigError(f"zoom range must satisfy 0 < min <= max, got [{self.zoom_min}, {self.zoom_max}]")
        if self.lambda_weight < 0:
            raise ConfigError("lambda_weight must be >= 0")
        if self.alpha <= 0:
            raise ConfigError("alpha must be > 0")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config with the fields in ``d`` (parsed JSON) over the defaults."""
        return fields_from_json(cls, {**asdict(cls()), **d}, ConfigError)


@dataclass
class ModelBundle:
    skeleton: SkeletonSpec
    pose_config: nn.MlpConfig
    pose_params: nn.ParamVector
    depth_config: nn.MlpConfig
    depth_params: nn.ParamVector
    stats: StandardizerStats
    version: int = BUNDLE_VERSION


def save_bundle(path: str | Path, bundle: ModelBundle) -> None:
    """Write one ``.npz`` file at exactly ``path``: both parameter vectors and
    a JSON ``meta`` entry.  Equal bundles give byte-identical files."""
    meta = {
        "version": bundle.version,
        "skeleton": asdict(bundle.skeleton),
        "stats": bundle.stats.to_dict(),
        "posenet": asdict(bundle.pose_config),
        "jointdepthnet": asdict(bundle.depth_config),
    }
    with open(path, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), posenet=bundle.pose_params.flat,
                 jointdepthnet=bundle.depth_params.flat)


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a file written by :func:`save_bundle`.  A version-1 JSON
    checkpoint, a truncated file, or sizes that do not match the stored
    configs and skeleton raise ValueError naming ``path``."""
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
            if head[:1] == b"{":
                raise ValueError("version-1 JSON checkpoints are unsupported, retrain the model")
            if head != b"PK\x03\x04":
                raise ValueError("not a zip archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as npz:
                meta = json.loads(str(npz["meta"]))
                pose_flat, depth_flat = npz["posenet"], npz["jointdepthnet"]
        if meta["version"] != BUNDLE_VERSION:
            raise ValueError(f"unsupported model version {meta['version']!r}")
        skeleton = fields_from_json(SkeletonSpec, meta["skeleton"])
        stats = StandardizerStats.from_dict(meta["stats"])
        dim, k = 3 * skeleton.num_joints, len(skeleton.depth_subset)
        for name, value in vars(stats).items():
            size = k if name.startswith("depth_offset") else dim
            if value.shape != (size,):
                raise ValueError(f"stats {name} has shape {value.shape}, the skeleton needs ({size},)")
        pose_config = fields_from_json(nn.MlpConfig, meta["posenet"])
        depth_config = fields_from_json(nn.MlpConfig, meta["jointdepthnet"])
        return ModelBundle(
            skeleton=skeleton,
            pose_config=pose_config,
            pose_params=nn.ParamVector(pose_config, pose_flat),
            depth_config=depth_config,
            depth_params=nn.ParamVector(depth_config, depth_flat),
            stats=stats,
            version=meta["version"],
        )
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: cannot load model bundle: {exc}") from exc


def predict_frames(bundle: ModelBundle, samples: list[Sample]):
    """Absolute 3D poses (J, 3) from one forward pass over all samples,
    grouped per frame in first-appearance order: (frame_ids, list of pose
    lists).  The depth net plays no part."""
    batch = SampleBatch.from_samples(samples, bundle.skeleton.num_joints)
    x, _ = build_inputs(batch, bundle.stats)
    o, _ = nn.forward(bundle.pose_params, bundle.pose_config, x, train=False)
    poses = vector_to_pose(destandardize_output(o, bundle.stats), bundle.skeleton)
    frames: dict[str, list[np.ndarray]] = {}
    for frame_id, pose in zip(batch.frame_ids, poses):
        frames.setdefault(frame_id, []).append(pose)
    return list(frames), list(frames.values())


def predict_pose(bundle: ModelBundle, sample: Sample) -> np.ndarray:
    """Absolute 3D pose (J, 3) for one sample."""
    return predict_frames(bundle, [sample])[1][0][0]


def _step_rng(seed: int, epoch: int, step: int, role: int) -> np.random.Generator:
    """A fresh stream per (epoch, step, role).

    Keeping the annotated-path randomness independent of the weak path
    means dropping the weak set (or zeroing lambda) leaves the pose
    network's trajectory untouched.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 3, epoch, step, role])))


def _diverged(exc: FloatingPointError, epoch: int, step: int, net: str, params: nn.ParamVector):
    """The error for a training step that went non-finite, saying where."""
    bad = next((name for name, p in params.items() if not np.isfinite(p).all()), None)
    found = f"first non-finite parameter {bad}" if bad else "all parameters finite"
    return FloatingPointError(f"training diverged at epoch {epoch}, step {step}, in {net}: {exc}; {found}")


def train(config: TrainConfig, dataset: Dataset, spec: SkeletonSpec | None = None):
    """Train both networks; returns (ModelBundle, per-epoch log dicts).

    Mini-batches take half their samples from the annotated pool and
    half from the weak pool (all annotated when there is no weak data).
    The weak half flows through both networks and contributes the robust
    depth term; gradient flows back into the pose network unless
    ``stop_weak_pose_gradient`` is set.  Runs with equal seeds are
    bit-reproducible.  The dataset's samples are not modified.
    """
    spec = spec or default_skeleton()
    if not dataset.annotated:
        raise ConfigError("training needs at least one annotated sample")
    ann_all = SampleBatch.from_samples(dataset.annotated, spec.num_joints)
    weak_all = SampleBatch.from_samples(dataset.weak, spec.num_joints)
    if config.track_weak_grad_stats and weak_all.visibility is None:
        raise ConfigError("track_weak_grad_stats needs eval_visibility on every weak sample")

    stats = fit_standardizer(ann_all, spec)
    dim = 3 * spec.num_joints
    pose_config = nn.MlpConfig(
        input_dim=dim, output_dim=dim,
        hidden_dim=config.hidden_dim, num_blocks=config.num_blocks, dropout=config.dropout,
    )
    depth_config = nn.MlpConfig(
        input_dim=dim, output_dim=len(spec.depth_subset),
        hidden_dim=config.depth_hidden_dim, num_blocks=config.depth_num_blocks, dropout=config.dropout,
    )
    init_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 0])))
    pose_params = nn.init_params(pose_config, init_rng)
    depth_params = nn.init_params(depth_config, init_rng)
    pose_adam = nn.init_adam(pose_params)
    depth_adam = nn.init_adam(depth_params)
    nets = {"posenet": pose_params, "jointdepthnet": depth_params}

    order_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 1])))
    weak_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 2])))
    loss_config = RobustLossConfig(alpha=config.alpha, lambda_weight=config.lambda_weight)
    subset = np.asarray(spec.depth_subset, dtype=int)

    n_ann = len(ann_all)
    n_weak = len(weak_all)
    use_weak = n_weak > 0
    ann_per_step = config.batch_size // 2 if use_weak else config.batch_size
    steps_per_epoch = math.ceil(n_ann / ann_per_step)

    logs = []
    for epoch in range(config.epochs):
        lr = nn.lr_schedule(config.base_lr, epoch, config.lr_decay, config.lr_decay_every)
        order = order_rng.permutation(n_ann)
        epoch_l1 = 0.0
        epoch_weak = 0.0
        grad_abs = {"visible": 0.0, "occluded": 0.0}
        grad_n = {"visible": 0, "occluded": 0}

        for step in range(steps_per_epoch):
            net = "posenet"  # the network of the running call, for the divergence error
            try:
                idx = order[step * ann_per_step : (step + 1) * ann_per_step]
                zoom_rng = _step_rng(config.seed, epoch, step, 0)
                factors = zoom_rng.uniform(config.zoom_min, config.zoom_max, size=len(idx))
                ann = zoom_augment(ann_all.take(idx), factors)
                x_ann, _ = build_inputs(ann, stats)
                t_std = standardize_output(pose_to_vector(ann.joints_3d, spec), stats)

                o_ann, cache_ann = nn.forward(
                    pose_params, pose_config, x_ann, train=True, rng=_step_rng(config.seed, epoch, step, 2)
                )
                l1_value, d_o_ann = l1_pose_loss(o_ann, t_std)
                pose_grads, _ = nn.backward(pose_params, pose_config, cache_ann, d_o_ann)
                epoch_l1 += l1_value

                if use_weak:
                    widx = weak_rng.integers(n_weak, size=len(idx))
                    wz_rng = _step_rng(config.seed, epoch, step, 1)
                    wfactors = wz_rng.uniform(config.zoom_min, config.zoom_max, size=len(widx))
                    weak = zoom_augment(weak_all.take(widx), wfactors)
                    x_weak, valid_all = build_inputs(weak, stats)
                    target_depths = weak.readouts[:, subset]
                    valid = valid_all[:, subset]

                    o_weak, cache_weak = nn.forward(
                        pose_params, pose_config, x_weak, train=True, rng=_step_rng(config.seed, epoch, step, 3)
                    )
                    net = "jointdepthnet"
                    depths, head_cache = predicted_joint_depths(
                        o_weak, depth_params, depth_config, stats, spec,
                        train=True, rng=_step_rng(config.seed, epoch, step, 4),
                    )
                    target_depths = np.where(valid, target_depths, 0.0)
                    weak_value, _, d_depths = total_loss(
                        np.zeros((0, dim)), np.zeros((0, dim)), depths, target_depths, valid, loss_config
                    )
                    epoch_weak += weak_value

                    depth_grads, d_o_weak = joint_depth_backward(
                        d_depths, head_cache, depth_params, depth_config, stats
                    )
                    nn.adam_step(depth_params, depth_grads, depth_adam, lr)
                    net = "posenet"
                    if not config.stop_weak_pose_gradient:
                        weak_pose_grads, _ = nn.backward(pose_params, pose_config, cache_weak, d_o_weak)
                        pose_grads.flat += weak_pose_grads.flat

                    if config.track_weak_grad_stats:
                        vis = weak.visibility[:, subset]
                        mags = np.abs(d_depths)
                        for label, mask in (("visible", valid & vis), ("occluded", valid & ~vis)):
                            grad_abs[label] += float(mags[mask].sum())
                            grad_n[label] += int(mask.sum())

                nn.adam_step(pose_params, pose_grads, pose_adam, lr)
            except FloatingPointError as exc:
                raise _diverged(exc, epoch, step, net, nets[net]) from exc

        entry = {
            "epoch": epoch,
            "lr": lr,
            "loss": epoch_l1 + epoch_weak,
            "loss_l1": epoch_l1,
            "loss_weak": epoch_weak,
            "steps": steps_per_epoch,
        }
        if config.track_weak_grad_stats:
            entry["weak_grad_visible"] = grad_abs["visible"] / grad_n["visible"] if grad_n["visible"] else 0.0
            entry["weak_grad_occluded"] = grad_abs["occluded"] / grad_n["occluded"] if grad_n["occluded"] else 0.0
            entry["weak_grad_visible_n"] = grad_n["visible"]
            entry["weak_grad_occluded_n"] = grad_n["occluded"]
        logs.append(entry)

    bundle = ModelBundle(
        skeleton=spec,
        pose_config=pose_config,
        pose_params=pose_params,
        depth_config=depth_config,
        depth_params=depth_params,
        stats=stats,
    )
    return bundle, logs
