"""Sample records, dataset split and the JSON-lines pose file format.

One record per person instance per frame:

    {"frame_id": ..., "camera": {"fx", "fy", "cx", "cy", "width", "height"},
     "joints_2d": [[x, y], ...],           # pixels
     "joints_3d": [[x, y, z], ...],        # mm, optional (annotated only)
     "depth_path": "depth/....dmap"}       # optional, relative to the file

Records without ``joints_3d`` are depth-only (weak) samples.  Floats are
written with ``repr`` precision so files round trip bit-exact.  The
module also checks JSON config values against dataclass field types.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .depth import DepthMap, load_depth, read_depth_at
from .geometry import CameraIntrinsics


@dataclass
class Sample:
    """One person instance in one frame."""

    frame_id: str
    camera: CameraIntrinsics
    width: int
    height: int
    joints_2d: np.ndarray
    joints_3d: np.ndarray | None = None
    depth_path: str | None = None
    depth: DepthMap | None = None
    depth_readouts: np.ndarray | None = None
    depth_valid: np.ndarray | None = None
    # Ground truth withheld from training for weak samples, kept for
    # evaluation and diagnostics of synthetic data.
    eval_joints_3d: np.ndarray | None = field(default=None, repr=False)
    eval_visibility: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_annotated(self) -> bool:
        return self.joints_3d is not None

    def gt_pose(self) -> np.ndarray | None:
        return self.joints_3d if self.joints_3d is not None else self.eval_joints_3d

    def load_depth_map(self) -> DepthMap:
        if self.depth is None:
            if self.depth_path is None:
                raise ValueError(f"sample {self.frame_id} has no depth source")
            self.depth = load_depth(self.depth_path)
        return self.depth

    def ensure_readouts(self) -> None:
        """Cache per-joint depth readouts at the 2D joints, once."""
        if self.depth_readouts is not None:
            if self.depth_valid is None:
                self.depth_valid = np.isfinite(self.depth_readouts)
            return
        readout = read_depth_at(self.load_depth_map(), self.joints_2d)
        self.depth_readouts = readout.values
        self.depth_valid = readout.valid


@dataclass
class Dataset:
    annotated: list[Sample]
    weak: list[Sample]

    def all_samples(self) -> list[Sample]:
        return self.annotated + self.weak


def sample_to_record(sample: Sample, use_eval_pose: bool = False) -> dict:
    cam = sample.camera
    record: dict = {
        "frame_id": sample.frame_id,
        "camera": {
            "fx": float(cam.fx),
            "fy": float(cam.fy),
            "cx": float(cam.cx),
            "cy": float(cam.cy),
            "width": int(sample.width),
            "height": int(sample.height),
        },
        "joints_2d": np.asarray(sample.joints_2d, dtype=np.float64).tolist(),
    }
    pose = sample.gt_pose() if use_eval_pose else sample.joints_3d
    if pose is not None:
        record["joints_3d"] = np.asarray(pose, dtype=np.float64).tolist()
    if sample.depth_path is not None:
        record["depth_path"] = sample.depth_path
    if sample.depth_readouts is not None:
        valid = sample.depth_valid
        if valid is None:
            valid = np.isfinite(sample.depth_readouts)
        record["depth_readouts"] = [
            float(v) if ok else None for v, ok in zip(sample.depth_readouts, valid)
        ]
    return record


def record_to_sample(record: dict, base_dir: Path | None = None) -> Sample:
    """A record's sample; a missing field raises KeyError naming it and
    per-joint arrays that disagree on the joint count raise ValueError."""
    cam_rec = record["camera"]
    depth_path = record.get("depth_path")
    if depth_path is not None and base_dir is not None:
        depth_path = str(base_dir / depth_path)
    joints_2d = np.asarray(record["joints_2d"], dtype=np.float64)
    if joints_2d.ndim != 2 or joints_2d.shape[1] != 2:
        raise ValueError(f"joints_2d has shape {joints_2d.shape}, expected (J, 2)")
    num_joints = joints_2d.shape[0]
    joints_3d = record.get("joints_3d")
    if joints_3d is not None:
        joints_3d = np.asarray(joints_3d, dtype=np.float64)
        if joints_3d.shape != (num_joints, 3):
            raise ValueError(f"joints_3d has shape {joints_3d.shape}, expected ({num_joints}, 3) like joints_2d")
    readouts = record.get("depth_readouts")
    depth_readouts = None
    depth_valid = None
    if readouts is not None:
        depth_readouts = np.array(
            [np.nan if v is None else float(v) for v in readouts], dtype=np.float64
        )
        if depth_readouts.shape != (num_joints,):
            raise ValueError(
                f"depth_readouts has shape {depth_readouts.shape}, expected ({num_joints},) like joints_2d"
            )
        depth_valid = np.isfinite(depth_readouts)
    return Sample(
        frame_id=str(record["frame_id"]),
        camera=CameraIntrinsics.from_dict(cam_rec),
        width=int(cam_rec["width"]),
        height=int(cam_rec["height"]),
        joints_2d=joints_2d,
        joints_3d=joints_3d,
        depth_path=depth_path,
        depth_readouts=depth_readouts,
        depth_valid=depth_valid,
    )


def write_pose_file(path: str | Path, samples: list[Sample], use_eval_pose: bool = False) -> None:
    with open(path, "w") as fh:
        for sample in samples:
            fh.write(json.dumps(sample_to_record(sample, use_eval_pose)) + "\n")


def read_pose_file(path: str | Path) -> list[Sample]:
    path = Path(path)
    samples = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: invalid JSON record: {exc}") from exc
            try:
                samples.append(record_to_sample(record, base_dir=path.parent))
            except KeyError as exc:
                raise ValueError(f"{path}:{line_no}: record has no field {exc.args[0]!r}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {exc}") from exc
    return samples


def split_dataset(samples: list[Sample]) -> Dataset:
    """Annotated samples are the ones carrying a 3D pose."""
    annotated = [s for s in samples if s.is_annotated]
    weak = [s for s in samples if not s.is_annotated]
    return Dataset(annotated=annotated, weak=weak)


def load_dataset(data_dir: str | Path) -> Dataset:
    return split_dataset(read_pose_file(Path(data_dir) / "samples.jsonl"))


def group_frames(samples: list[Sample]) -> dict[str, list[Sample]]:
    """Group samples by frame, preserving first-appearance frame order."""
    frames: dict[str, list[Sample]] = {}
    for sample in samples:
        frames.setdefault(sample.frame_id, []).append(sample)
    return frames


_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool}


def _fits(value, annotation: str) -> bool:
    if annotation.endswith(" | None"):
        return value is None or _fits(value, annotation[: -len(" | None")])
    if annotation.startswith("tuple["):
        parts = annotation[len("tuple[") : -1].split(", ")
        return isinstance(value, (list, tuple)) and len(value) == len(parts) and all(map(_fits, value, parts))
    # JSON true/false parse as bool, which Python also counts as an int.
    return isinstance(value, _JSON_TYPES[annotation]) and (annotation == "bool" or not isinstance(value, bool))


def check_field_types(cls, values: dict, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` naming the first field of dataclass ``cls`` whose
    value in ``values`` (parsed JSON) does not fit the field's annotation."""
    for f in fields(cls):
        if f.name in values and not _fits(values[f.name], f.type):
            raise error(f"config field {f.name!r} must be {f.type}, got {values[f.name]!r}")
