"""Sample records, dataset split and the JSON-lines pose file format.

One record per person instance per frame:

    {"frame_id": ..., "camera": {"fx", "fy", "cx", "cy", "width", "height"},
     "joints_2d": [[x, y], ...],           # pixels
     "joints_3d": [[x, y, z], ...],        # mm, optional (annotated only)
     "depth_path": "depth/....dmap"}       # optional, relative to the file

Records without ``joints_3d`` are depth-only (weak) samples.  Floats are
written with ``repr`` precision so files round trip bit-exact.  A
:class:`SampleBatch` holds a sample list as arrays for training and
prediction.  :func:`fields_from_json` builds a config dataclass from
JSON, checking each field by name and type.
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

    def readouts(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-joint depth readouts at the 2D joints and their validity: the
        cached ones, else read from the map or the DMAP file.  Stores nothing."""
        if self.depth_readouts is not None:
            values = np.asarray(self.depth_readouts, dtype=np.float64)
            valid = np.isfinite(values) if self.depth_valid is None else np.asarray(self.depth_valid, dtype=bool)
            return values, valid
        if self.depth is None and self.depth_path is None:
            raise ValueError(f"sample {self.frame_id} has no depth source")
        readout = read_depth_at(self.depth if self.depth is not None else load_depth(self.depth_path), self.joints_2d)
        return readout.values, readout.valid

    def ensure_readouts(self) -> None:
        """Cache per-joint depth readouts at the 2D joints (not the map), once."""
        self.depth_readouts, self.depth_valid = self.readouts()


def _checked(sample: Sample, name: str, value, shape: tuple, dtype=np.float64, finite: bool = True) -> np.ndarray:
    arr = np.asarray(value, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"sample {sample.frame_id}: {name} has shape {arr.shape}, expected {shape}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"sample {sample.frame_id}: {name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class SampleBatch:
    """A sample list as arrays, row i holding sample i: the form training
    and prediction work on.  Build it with :meth:`from_samples`."""

    frame_ids: np.ndarray  # (N,) str objects
    intrinsics: np.ndarray  # (N, 4) fx, fy, cx, cy in pixels
    joints_2d: np.ndarray  # (N, J, 2) pixels
    readouts: np.ndarray  # (N, J) mm, NaN where invalid
    valid: np.ndarray  # (N, J) bool
    joints_3d: np.ndarray | None = None  # (N, J, 3) mm, when every sample is annotated
    visibility: np.ndarray | None = None  # (N, J) bool, when every sample has eval_visibility

    def __len__(self) -> int:
        return len(self.frame_ids)

    def take(self, idx) -> "SampleBatch":
        """The rows at the integer index array ``idx``, as a new batch."""
        arrays = {f.name: getattr(self, f.name) for f in fields(self)}
        return SampleBatch(**{name: None if a is None else a[idx] for name, a in arrays.items()})

    @classmethod
    def from_samples(cls, samples: list[Sample], num_joints: int) -> "SampleBatch":
        """Check each sample's fields against ``num_joints`` and stack them.

        This is where sample arrays are validated: a wrong shape, a
        non-finite joint or a non-finite readout marked valid raises
        ValueError naming the frame id and the field.  A missing readout
        is read from the sample's map or DMAP file without storing it; a
        run of samples that share a DMAP file loads it once.
        """
        n, j = len(samples), num_joints
        joints_2d = np.empty((n, j, 2))
        readouts = np.empty((n, j))
        valid = np.empty((n, j), dtype=bool)
        joints_3d = np.empty((n, j, 3)) if all(s.joints_3d is not None for s in samples) else None
        visibility = np.empty((n, j), dtype=bool) if all(s.eval_visibility is not None for s in samples) else None
        # A pose file written frame by frame (as `poselift generate` writes
        # one) holds a frame's persons in adjacent records, so keeping the
        # previous DMAP loads each such file once.
        last_path, last_map = None, None
        for i, s in enumerate(samples):
            joints_2d[i] = _checked(s, "joints_2d", s.joints_2d, (j, 2))
            if s.depth_readouts is None and s.depth is None and s.depth_path is not None:
                if s.depth_path != last_path:
                    last_path, last_map = s.depth_path, load_depth(s.depth_path)
                readout = read_depth_at(last_map, s.joints_2d)
                values, ok = readout.values, readout.valid
            else:
                values, ok = s.readouts()
            values = _checked(s, "depth_readouts", values, (j,), finite=False)
            valid[i] = _checked(s, "depth_valid", ok, (j,), dtype=bool, finite=False)
            if not np.isfinite(values[valid[i]]).all():
                raise ValueError(f"sample {s.frame_id}: depth_readouts marked valid are not finite")
            readouts[i] = np.where(valid[i], values, np.nan)
            if joints_3d is not None:
                joints_3d[i] = _checked(s, "joints_3d", s.joints_3d, (j, 3))
            if visibility is not None:
                visibility[i] = _checked(s, "eval_visibility", s.eval_visibility, (j,), dtype=bool, finite=False)
        return cls(
            frame_ids=np.array([s.frame_id for s in samples], dtype=object),
            intrinsics=np.array([[s.camera.fx, s.camera.fy, s.camera.cx, s.camera.cy] for s in samples],
                                dtype=np.float64).reshape(n, 4),
            joints_2d=joints_2d,
            readouts=readouts,
            valid=valid,
            joints_3d=joints_3d,
            visibility=visibility,
        )


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
    """A record's sample; a missing field raises KeyError naming it, and
    per-joint arrays that disagree on the joint count or joints that are
    not finite raise ValueError.  A null readout marks an invalid one."""
    cam_rec = record["camera"]
    depth_path = record.get("depth_path")
    if depth_path is not None and base_dir is not None:
        depth_path = str(base_dir / depth_path)
    joints_2d = np.asarray(record["joints_2d"], dtype=np.float64)
    if joints_2d.ndim != 2 or joints_2d.shape[1] != 2:
        raise ValueError(f"joints_2d has shape {joints_2d.shape}, expected (J, 2)")
    if not np.isfinite(joints_2d).all():
        raise ValueError("joints_2d contains non-finite values")
    num_joints = joints_2d.shape[0]
    joints_3d = record.get("joints_3d")
    if joints_3d is not None:
        joints_3d = np.asarray(joints_3d, dtype=np.float64)
        if joints_3d.shape != (num_joints, 3):
            raise ValueError(f"joints_3d has shape {joints_3d.shape}, expected ({num_joints}, 3) like joints_2d")
        if not np.isfinite(joints_3d).all():
            raise ValueError("joints_3d contains non-finite values")
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


_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _fits(value, annotation: str) -> bool:
    if annotation.endswith(" | None"):
        return value is None or _fits(value, annotation[: -len(" | None")])
    if annotation.startswith("tuple["):
        parts = annotation[len("tuple[") : -1].split(", ")
        if not isinstance(value, (list, tuple)):
            return False
        if parts[-1] == "...":
            return all(_fits(v, parts[0]) for v in value)
        return len(value) == len(parts) and all(map(_fits, value, parts))
    # JSON true/false parse as bool, which Python also counts as an int.
    return isinstance(value, _JSON_TYPES[annotation]) and (annotation == "bool" or not isinstance(value, bool))


def fields_from_json(cls, values, error: type[ValueError] = ValueError):
    """``cls(**values)`` for dataclass ``cls`` from parsed JSON holding every
    field; write one back with ``dataclasses.asdict``.  Raise ``error``
    naming unknown or missing fields, or else the first field whose value
    does not fit its annotation.  Lists become tuples for tuple fields."""
    if not isinstance(values, dict):
        raise error(f"expected a JSON object of {cls.__name__} fields, got {type(values).__name__}")
    names = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(values) - names), sorted(names - set(values))
    if unknown:
        raise error(f"unknown config fields: {unknown}")
    if missing:
        raise error(f"missing config fields: {missing}")
    for f in fields(cls):
        if not _fits(values[f.name], f.type):
            raise error(f"config field {f.name!r} must be {f.type}, got {values[f.name]!r}")
    return cls(**{f.name: tuple(values[f.name]) if f.type.startswith("tuple[") else values[f.name]
                  for f in fields(cls)})
