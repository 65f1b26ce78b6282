"""Training and inference around the two networks.

The pose network lifts [normalized 2D joints, per-joint depth readouts]
to an absolute 3D pose expressed as root + relative offsets, everything
standardized to zero mean and unit variance.  During training a second
network predicts, from the pose network's output, how the depth sensor
should see each of the stable joints; comparing that against the actual
readouts through the robust penalty turns unannotated RGB-D frames into
a weak supervision signal.  The depth network is ignored at inference.

The pose network reads the depth readouts at inference too: a prediction
needs the sensor's depth at each 2D joint, not the RGB image alone.
With two usable CPUs and single-threaded BLAS, ``train`` runs each step
on two threads, the pose network's Adam update as two element ranges
side by side, and ``predict_frames`` a large batch as two row blocks,
all through :func:`nn.pair` and the process's one worker thread; either
way the result has the bytes of one thread.  The bits depend on the
numpy and OpenBLAS build, the BLAS thread count and the batch size, not
on the schedule (README, "Threads").
"""

from __future__ import annotations

import json
import math
import zipfile
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import nn
from .checks import check_fields, fields_from_json, finite, numbers_from_json, type_rules
from .data import Dataset, Sample, SampleBatch
from .files import rewrite
from .geometry import normalize_2d, zoom_augment
from .losses import l1_pose_loss, total_loss
from .skeleton import SkeletonSpec, default_skeleton, pose_to_vector, vector_index, vector_to_pose

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
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "StandardizerStats":
        if not isinstance(d, dict):
            raise ValueError(f"stats must be a JSON object, got {type(d).__name__}")
        return cls(**{f.name: numbers_from_json(f"stats.{f.name}", d[f.name]) for f in fields(cls)})


def _raw_inputs(batch: SampleBatch) -> np.ndarray:
    """Un-standardized features (N, 3J): normalized 2D joints, then readouts
    (NaN where invalid)."""
    normalized = normalize_2d(batch.joints_2d, batch.intrinsics[:, None])
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
    pooled = _robust_offset(off_mat.ravel()) or (-40.0, 30.0)
    k = off_mat.shape[1]
    offset_mean = np.full(k, pooled[0])
    offset_std = np.full(k, pooled[1])
    for j in range(k):
        fit = _robust_offset(off_mat[:, j])
        if fit is not None:
            offset_mean[j], offset_std[j] = fit
    return StandardizerStats(input_mean, input_std, output_mean, output_std, offset_mean, np.maximum(offset_std, 1.0))


def build_inputs(batch: SampleBatch, stats: StandardizerStats) -> np.ndarray:
    """Standardized network inputs (N, 3J).

    Invalid depth readouts are imputed with the standardized mean (zero)
    so they carry no signal.
    """
    x = (_raw_inputs(batch) - stats.input_mean) / stats.input_std
    x[np.isnan(x)] = 0.0
    return x


def standardize_output(pose_vecs: np.ndarray, stats: StandardizerStats) -> np.ndarray:
    return (pose_vecs - stats.output_mean) / stats.output_std


def destandardize_output(o_std: np.ndarray, stats: StandardizerStats) -> np.ndarray:
    return o_std * stats.output_std + stats.output_mean


def predicted_joint_depths(bundle: ModelBundle, o_std: np.ndarray, train: bool = False,
                           rng: np.random.Generator | None = None):
    """Expected sensor depth at the stable joints, from the predicted pose.

    The depth network predicts the standardized deviation of the sensor
    value from the predicted joint z, so an untrained head already puts
    the estimate on the body surface; what it learns is the
    pose-dependent part (which side faces the camera, self-occlusion).
    Returns (depths (B, K), the depth network's cache for the backward
    pass).
    """
    stats, spec = bundle.stats, bundle.skeleton
    jdn_out, cache = nn.forward(bundle.depth_params, bundle.depth_config, o_std, train=train, rng=rng)
    z_abs = vector_to_pose(destandardize_output(o_std, stats), spec)[:, spec.depth_subset, 2]
    depths = z_abs + stats.depth_offset_mean + stats.depth_offset_std * jdn_out
    return depths, cache


def joint_depth_backward(bundle: ModelBundle, d_depths: np.ndarray, cache: dict, grads: nn.ParamVector):
    """Backward pass of the weak head: writes the depth-net gradients into
    ``grads`` and returns the gradient with respect to o_std."""
    stats, spec = bundle.stats, bundle.skeleton
    d_o = nn.backward(bundle.depth_params, bundle.depth_config, cache, d_depths * stats.depth_offset_std, grads)
    z_dims = vector_index(spec, spec.depth_subset, 2)  # distinct, so += adds each once
    root_z = vector_index(spec, spec.root, 2)
    not_root = np.asarray(spec.depth_subset) != spec.root
    d_o[:, z_dims] += d_depths * stats.output_std[z_dims]
    d_o[:, root_z] += (d_depths * stats.output_std[root_z] * not_root).sum(axis=1)
    return d_o


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

    def __post_init__(self) -> None:
        check_fields(self, type_rules(self), ConfigError)
        check_fields(self, (
            ("epochs", self.epochs >= 1, ">= 1"),
            ("batch_size", self.batch_size >= 2 and self.batch_size % 2 == 0, "an even number >= 2"),
            ("base_lr", finite(self.base_lr) and self.base_lr > 0.0, "finite and > 0"),
            ("lr_decay", 0.0 < self.lr_decay <= 1.0, "in (0, 1]"),
            ("lr_decay_every", self.lr_decay_every >= 1, ">= 1"),
            ("lambda_weight", finite(self.lambda_weight) and self.lambda_weight >= 0.0, "finite and >= 0"),
            ("alpha", finite(self.alpha) and self.alpha > 0.0, "finite and > 0"),
            ("hidden_dim", self.hidden_dim >= 1, ">= 1"),
            ("num_blocks", self.num_blocks >= 0, ">= 0"),
            ("dropout", 0.0 <= self.dropout < 1.0, "in [0, 1)"),
            ("depth_hidden_dim", self.depth_hidden_dim >= 1, ">= 1"),
            ("depth_num_blocks", self.depth_num_blocks >= 0, ">= 0"),
            ("seed", self.seed >= 0, ">= 0"),
            ("zoom_min", finite(self.zoom_min) and self.zoom_min > 0.0, "finite and > 0"),
            ("zoom_max", finite(self.zoom_max) and self.zoom_max >= self.zoom_min,
             f"finite and >= zoom_min = {self.zoom_min!r}, the zoom range's low end"),
        ), ConfigError)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config with the fields in ``d`` (parsed JSON) over the defaults."""
        return fields_from_json(cls, d, ConfigError, defaults=True)


@dataclass
class ModelBundle:
    skeleton: SkeletonSpec
    pose_config: nn.MlpConfig
    pose_params: nn.ParamVector
    depth_config: nn.MlpConfig
    depth_params: nn.ParamVector
    stats: StandardizerStats


def save_bundle(path: str | Path, bundle: ModelBundle) -> None:
    """Write one ``.npz`` file at exactly ``path``: both parameter vectors and
    a JSON ``meta`` entry.  Equal bundles give byte-identical files.  An existing
    file is rewritten in place, never truncated first (:func:`poselift.files.rewrite`)."""
    meta = {
        "version": BUNDLE_VERSION,
        "skeleton": asdict(bundle.skeleton),
        "stats": bundle.stats.to_dict(),
        "posenet": asdict(bundle.pose_config),
        "jointdepthnet": asdict(bundle.depth_config),
    }
    with rewrite(path, binary=True) as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), posenet=bundle.pose_params.flat,
                 jointdepthnet=bundle.depth_params.flat)


def _stored_network(meta: dict, net: str, flat: np.ndarray, dims: tuple) -> tuple[nn.MlpConfig, nn.ParamVector]:
    """A network's config from a bundle's ``meta``, its (input_dim, output_dim) the skeleton's
    ``dims``, and its finite parameters over ``flat``; a ValueError names the network."""
    try:
        config = fields_from_json(nn.MlpConfig, meta[net])
        check_fields(config, [(name, getattr(config, name) == need, f"{need} for the skeleton")
                              for name, need in zip(("input_dim", "output_dim"), dims)])
        params = nn.ParamVector(config, flat)
        if not np.isfinite(flat).all():
            raise ValueError("non-finite parameters")
        return config, params
    except ValueError as exc:
        raise ValueError(f"{net}: {exc}") from exc


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a file written by :func:`save_bundle`.  A version-1 JSON
    checkpoint, a truncated file, a ``meta`` or stats that is not a JSON
    object, network widths or sizes that do not match the skeleton and
    the stored configs, non-finite parameters or stats, or a stats std
    that is not positive raise ValueError naming ``path``."""
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
        if not isinstance(meta, dict):
            raise ValueError(f"meta must be a JSON object, got {type(meta).__name__}")
        if meta["version"] != BUNDLE_VERSION:
            raise ValueError(f"unsupported model version {meta['version']!r}")
        skeleton = fields_from_json(SkeletonSpec, meta["skeleton"])
        stats = StandardizerStats.from_dict(meta["stats"])
        dim, k = 3 * skeleton.num_joints, len(skeleton.depth_subset)
        for name, value in vars(stats).items():
            size = k if name.startswith("depth_offset") else dim
            if value.shape != (size,):
                raise ValueError(f"stats {name} has shape {value.shape}, the skeleton needs ({size},)")
            if not np.isfinite(value).all():
                raise ValueError(f"stats {name} has non-finite values")
            if name.endswith("_std") and not (value > 0.0).all():
                raise ValueError(f"stats {name} must be positive")
        pose_config, pose_params = _stored_network(meta, "posenet", pose_flat, (dim, dim))
        depth_config, depth_params = _stored_network(meta, "jointdepthnet", depth_flat, (dim, k))
        return ModelBundle(skeleton, pose_config, pose_params, depth_config, depth_params, stats)
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: cannot load model bundle: {exc}") from exc


# A row block of a batch gives the bytes of the whole batch's forward pass
# only when BLAS takes the same kernel path for both.  On OpenBLAS that
# held for every layer shape, batch size and cut tried whenever each block
# had two rows or more (one row takes the GEMV path) and its smallest layer
# product, rows x in x out, was at least this many multiply-adds; smaller
# blocks differed in the last bits, by up to 1e-13.
_MIN_BLOCK_MACS = 1 << 20


def _eval_forward(params: nn.ParamVector, config: nn.MlpConfig, x: np.ndarray) -> np.ndarray:
    """``nn.forward(params, config, x, train=False)``'s output.  When
    :func:`nn._side_by_side` holds and both halves of ``x`` are large
    enough (``_MIN_BLOCK_MACS``), the rows before ``len(x) // 2`` run on
    the worker thread while the caller runs the rest (:func:`nn.pair`),
    and the outputs are stacked: the same bytes as one pass.  Otherwise
    one pass runs in the caller, which is faster than two blocks in turn."""
    half = len(x) // 2
    h = config.hidden_dim
    smallest = h * min((config.input_dim, config.output_dim) + ((h,) if config.num_blocks else ()))
    if half < 2 or half * smallest < _MIN_BLOCK_MACS or not nn._side_by_side():
        return nn.forward(params, config, x, train=False)[0]
    head, tail = nn.pair(lambda: nn.forward(params, config, x[:half], train=False)[0],
                         lambda: nn.forward(params, config, x[half:], train=False)[0])
    return np.concatenate([head, tail])


def predict_frames(bundle: ModelBundle, samples: list[Sample]):
    """Absolute 3D poses (J, 3) from one eval-mode forward pass of the
    pose network over all samples, grouped per frame in first-appearance
    order: (frame_ids, list of pose lists).  The network reads each
    sample's 2D joints and its depth readouts, so prediction needs the
    sensor; the depth net plays no part.  A large batch runs as two row
    blocks on two threads (:func:`_eval_forward`), with the bytes of the
    one-pass result."""
    batch = SampleBatch.from_samples(samples, bundle.skeleton.num_joints)
    x = build_inputs(batch, bundle.stats)
    o = _eval_forward(bundle.pose_params, bundle.pose_config, x)
    poses = vector_to_pose(destandardize_output(o, bundle.stats), bundle.skeleton)
    frames: dict[str, list[np.ndarray]] = {}
    for frame_id, pose in zip(batch.frame_ids, poses):
        frames.setdefault(frame_id, []).append(pose)
    return list(frames), list(frames.values())


def predict_pose(bundle: ModelBundle, sample: Sample) -> np.ndarray:
    """Absolute 3D pose (J, 3) for one sample."""
    return predict_frames(bundle, [sample])[1][0][0]


def init_bundle(config: TrainConfig, stats: StandardizerStats, spec: SkeletonSpec) -> ModelBundle:
    """Both networks at the widths in ``config``, initialized from ``config.seed``."""
    dim = 3 * spec.num_joints
    pose_config = nn.MlpConfig(dim, dim, config.hidden_dim, config.num_blocks, config.dropout)
    depth_config = nn.MlpConfig(dim, len(spec.depth_subset), config.depth_hidden_dim, config.depth_num_blocks,
                                config.dropout)
    init_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 0])))
    pose_params = nn.init_params(pose_config, init_rng)
    depth_params = nn.init_params(depth_config, init_rng)
    return ModelBundle(spec, pose_config, pose_params, depth_config, depth_params, stats)


# The roles of a step's random streams, see _step_rng.
_ANN_ZOOM, _WEAK_ZOOM, _ANN_DROPOUT, _WEAK_DROPOUT, _HEAD_DROPOUT = range(5)


def _step_rng(seed: int, epoch: int, step: int, role: int) -> np.random.Generator:
    """A fresh stream per (epoch, step, role).

    Keeping the annotated-path randomness independent of the weak path
    means dropping the weak set (or zeroing lambda) leaves the pose
    network's trajectory untouched.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, 3, epoch, step, role])))


def _pose_forward(bundle: ModelBundle, config: TrainConfig, batch: SampleBatch, epoch: int, step: int,
                  zoom_role: int, dropout_role: int):
    """The front half of both step functions: ``batch`` zoomed by factors
    drawn from the step's ``zoom_role`` stream, then the pose network's
    training forward pass with dropout from ``dropout_role``.  Returns
    (zoomed batch, standardized output, cache)."""
    factors = _step_rng(config.seed, epoch, step, zoom_role).uniform(config.zoom_min, config.zoom_max, size=len(batch))
    zoomed = zoom_augment(batch, factors)
    x = build_inputs(zoomed, bundle.stats)
    rng = _step_rng(config.seed, epoch, step, dropout_role)
    o, cache = nn.forward(bundle.pose_params, bundle.pose_config, x, train=True, rng=rng)
    return zoomed, o, cache


def annotated_step(bundle: ModelBundle, config: TrainConfig, batch: SampleBatch, epoch: int, step: int,
                   grads: nn.ParamVector) -> float:
    """The annotated half of training step ``step`` of ``epoch``: zoom,
    pose forward pass and L1 against the standardized 3D poses.  Writes
    the pose-net gradient into ``grads`` and returns the loss."""
    ann, o, cache = _pose_forward(bundle, config, batch, epoch, step, _ANN_ZOOM, _ANN_DROPOUT)
    targets = standardize_output(pose_to_vector(ann.joints_3d, bundle.skeleton), bundle.stats)
    value, d_o = l1_pose_loss(o, targets)
    nn.backward(bundle.pose_params, bundle.pose_config, cache, d_o, grads)
    return value


def weak_step(bundle: ModelBundle, config: TrainConfig, batch: SampleBatch, epoch: int, step: int,
              depth_grads: nn.ParamVector) -> tuple[float, np.ndarray, Callable[[nn.ParamVector], None]]:
    """The weak half of training step ``step`` of ``epoch``: zoom, pose
    forward pass, weak head, and the robust loss against the readouts at
    the stable joints (a NaN readout is skipped).  Writes the depth-net
    gradient into ``depth_grads``.  Returns (loss, gradient with respect
    to the head's depths, the pose backward pass): calling the last with
    the pose-net gradient buffer adds the weak half's gradient onto it,
    so the annotated half may write that buffer in the meantime.  A
    FloatingPointError from the head's forward pass, loss or backward
    pass carries ``network = "jointdepthnet"`` (:func:`_named`)."""
    weak, o, pose_cache = _pose_forward(bundle, config, batch, epoch, step, _WEAK_ZOOM, _WEAK_DROPOUT)
    head_rng = _step_rng(config.seed, epoch, step, _HEAD_DROPOUT)
    targets = weak.readouts[:, bundle.skeleton.depth_subset]

    def head():
        depths, head_cache = predicted_joint_depths(bundle, o, train=True, rng=head_rng)
        value, d_depths = total_loss(depths, targets, config.alpha, config.lambda_weight)
        return value, d_depths, joint_depth_backward(bundle, d_depths, head_cache, depth_grads)

    value, d_depths, d_o = _named("jointdepthnet", head)

    def pose_backward(pose_grads: nn.ParamVector) -> None:
        nn.backward(bundle.pose_params, bundle.pose_config, pose_cache, d_o, pose_grads, accumulate=True)

    return value, d_depths, pose_backward


def _named(net: str, fn: Callable, *args):
    """``fn(*args)``; a FloatingPointError it raises names ``net`` as its
    ``network``, which :func:`train`'s divergence error reports."""
    try:
        return fn(*args)
    except FloatingPointError as exc:
        exc.network = net
        raise


def _diverged(exc: FloatingPointError, epoch: int, step: int, bundle: ModelBundle):
    """The error for a training step that went non-finite, saying where."""
    net = getattr(exc, "network", "posenet")
    params = bundle.depth_params if net == "jointdepthnet" else bundle.pose_params
    bad = next((name for name, p in params.items() if not np.isfinite(p).all()), None)
    found = f"first non-finite parameter {bad}" if bad else "all parameters finite"
    return FloatingPointError(f"training diverged at epoch {epoch}, step {step}, in {net}: {exc}; {found}")


def train(config: TrainConfig, dataset: Dataset, spec: SkeletonSpec | None = None):
    """Train both networks; returns (ModelBundle, per-epoch log dicts).

    Mini-batches take half their samples from the annotated pool and
    half from the weak pool (all annotated when there is no weak data).
    Each step runs :func:`annotated_step`, :func:`weak_step` on the weak
    half, and one Adam update of each network.  Runs with equal seeds are
    bit-reproducible.  The dataset's samples are not modified.

    With weak data whose every sample has ``eval_visibility``, each
    epoch's log also holds the mean |weak gradient| and the readout count
    at visible and at occluded stable joints (``weak_grad_*``).

    The two halves share nothing until their pose gradients are summed,
    so with weak data a step is two :func:`nn.pair` calls and one update:
    the annotated half beside the weak half up to its pose backward pass,
    then the depth net's Adam update beside the weak pose backward pass,
    then the pose net's update, whose two element ranges are a third
    pair (:func:`nn.adam_step`).  Without weak data a step is the
    annotated half and that split update.  The first of each pair, and
    the lower range, run on the process's worker thread when
    :func:`nn._side_by_side` holds, else in the caller, and the depth
    net's update, already on the worker, runs its ranges in turn; every
    value is computed by the same operations in the same order either
    way, so the results are bit-identical.  If both halves fail, the
    annotated half's error is raised; if the depth net's update fails,
    its error, and the pose net's update does not run.
    """
    spec = spec or default_skeleton()
    if not dataset.annotated:
        raise ConfigError("training needs at least one annotated sample")
    ann_all = SampleBatch.from_samples(dataset.annotated, spec.num_joints)
    weak_all = SampleBatch.from_samples(dataset.weak, spec.num_joints)

    bundle = init_bundle(config, fit_standardizer(ann_all, spec), spec)
    pose_adam = nn.init_adam(bundle.pose_params)
    depth_adam = nn.init_adam(bundle.depth_params)
    # Written whole by every step's first backward pass, so never zeroed.
    pose_grads = nn.ParamVector(bundle.pose_config)
    depth_grads = nn.ParamVector(bundle.depth_config)

    order_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 1])))
    weak_rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([config.seed, 2])))
    subset = np.asarray(spec.depth_subset, dtype=int)

    n_ann = len(ann_all)
    n_weak = len(weak_all)
    use_weak = n_weak > 0
    grad_stats = use_weak and weak_all.visibility is not None
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
            try:
                ann = ann_all.take(order[step * ann_per_step : (step + 1) * ann_per_step])
                if not use_weak:
                    l1 = annotated_step(bundle, config, ann, epoch, step, pose_grads)
                else:
                    weak = weak_all.take(weak_rng.integers(n_weak, size=len(ann)))
                    l1, (weak_value, d_depths, pose_backward) = nn.pair(
                        lambda: annotated_step(bundle, config, ann, epoch, step, pose_grads),
                        lambda: weak_step(bundle, config, weak, epoch, step, depth_grads))
                    epoch_weak += weak_value
                    nn.pair(lambda: _named("jointdepthnet", nn.adam_step, bundle.depth_params, depth_grads,
                                           depth_adam, lr), lambda: pose_backward(pose_grads))
                    if grad_stats:
                        valid, vis = ~np.isnan(weak.readouts[:, subset]), weak.visibility[:, subset]
                        mags = np.abs(d_depths)
                        for label, mask in (("visible", valid & vis), ("occluded", valid & ~vis)):
                            grad_abs[label] += float(mags[mask].sum())
                            grad_n[label] += int(mask.sum())
                epoch_l1 += l1
                nn.adam_step(bundle.pose_params, pose_grads, pose_adam, lr)
            except FloatingPointError as exc:
                raise _diverged(exc, epoch, step, bundle) from exc

        entry = {
            "epoch": epoch,
            "lr": lr,
            "loss": epoch_l1 + epoch_weak,
            "loss_l1": epoch_l1,
            "loss_weak": epoch_weak,
            "steps": steps_per_epoch,
        }
        if grad_stats:
            entry["weak_grad_visible"] = grad_abs["visible"] / grad_n["visible"] if grad_n["visible"] else 0.0
            entry["weak_grad_occluded"] = grad_abs["occluded"] / grad_n["occluded"] if grad_n["occluded"] else 0.0
            entry["weak_grad_visible_n"] = grad_n["visible"]
            entry["weak_grad_occluded_n"] = grad_n["occluded"]
        logs.append(entry)

    return bundle, logs
