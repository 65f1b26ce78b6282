"""Absolute multi-person 3D pose lifting with weak depth supervision."""

from .data import (
    Dataset,
    Sample,
    SampleBatch,
    group_frames,
    load_dataset,
    read_pose_file,
    split_dataset,
    write_pose_file,
)
from .depth import DepthMap, DepthFormatError, load_depth, read_depth_at, save_depth
from .geometry import (
    BehindCameraError,
    CameraIntrinsics,
    denormalize_2d,
    normalize_2d,
    project,
    zoom_augment,
)
from .losses import gm_grad, gm_loss, l1_pose_loss, total_loss
from .metrics import MetricReport, evaluate, match_poses
from .nn import AdamState, MlpConfig, ParamVector, adam_step, backward, forward, init_adam, init_params, lr_schedule
from .pipeline import (
    ConfigError,
    ModelBundle,
    StandardizerStats,
    TrainConfig,
    build_inputs,
    fit_standardizer,
    load_bundle,
    predict_frames,
    predict_pose,
    save_bundle,
    train,
)
from .skeleton import (
    DegeneratePoseError,
    SkeletonSpec,
    default_skeleton,
    height_normalize,
    knee_neck_distance,
)
from .synth import SceneConfig, generate_dataset, generate_pose, generate_scene, render_depth

__version__ = "0.1.0"
