"""Sample records, dataset split and the JSON-lines pose file format.

One record per person instance per frame:

    {"frame_id": ..., "camera": {"fx", "fy", "cx", "cy", "width", "height"},
     "joints_2d": [[x, y], ...],           # pixels
     "joints_3d": [[x, y, z], ...],        # mm, optional (annotated only)
     "depth_path": "depth/....dmap"}       # optional, relative to the file

Records without ``joints_3d`` are depth-only (weak) samples.  Floats are
written with ``repr`` precision so files round trip bit-exact.  A
:class:`Sample` checks its fields once, when it is built from a record or
in code (``dataclasses.replace`` included), and stores an invalid depth
readout as NaN; a field assigned afterwards is not checked again.  A
:class:`SampleBatch` holds a sample list as arrays for training and
prediction.  Values are checked where they are built: a sample, its
camera and every config refuse in code what their JSON readers refuse
from a file, by one type rule per field (:mod:`poselift.checks`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checks import check_fields, fits, numbers_from_json
from .depth import DepthMap, load_depth, read_depth_at, save_depth
from .files import rewrite
from .geometry import CameraIntrinsics

SAMPLES_FILE = "samples.jsonl"  # a dataset directory's pose file, as write_dataset writes it


@dataclass
class Sample:
    """One person instance in one frame."""

    frame_id: str
    camera: CameraIntrinsics
    joints_2d: np.ndarray
    joints_3d: np.ndarray | None = None
    depth_path: str | None = None
    depth: DepthMap | None = None
    depth_readouts: np.ndarray | None = None  # (J,) mm, stored NaN where depth_valid (else finiteness) says invalid
    depth_valid: np.ndarray | None = None  # so ~np.isnan(depth_readouts): a readout it marks valid is finite
    # Ground truth withheld from training for weak samples, kept for
    # evaluation and diagnostics of synthetic data.
    eval_joints_3d: np.ndarray | None = field(default=None, repr=False)
    eval_visibility: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        """Check the fields, raising ValueError (``sample <frame_id>: <field>
        ...`` for an array), and store the arrays as float64 or bool; J is
        ``joints_2d``'s length.  A field assigned later is not checked again."""
        check_fields(self, [(name, fits(getattr(self, name), need), need)
                            for name, need in (("frame_id", "str"), ("depth_path", "str | None"))])
        joints_2d = np.asarray(self.joints_2d, dtype=np.float64)
        if joints_2d.ndim != 2:
            raise ValueError(f"sample {self.frame_id}: joints_2d has shape {joints_2d.shape}, expected (J, 2)")
        j = len(joints_2d)
        for name, shape, dtype in [("joints_2d", (j, 2), float), ("joints_3d", (j, 3), float),
                                   ("depth_readouts", (j,), float), ("depth_valid", (j,), bool),
                                   ("eval_visibility", (j,), bool)]:
            value = getattr(self, name)
            if value is None:
                continue
            arr = np.asarray(value, dtype=dtype)
            if arr.shape != shape:
                raise ValueError(f"sample {self.frame_id}: {name} has shape {arr.shape}, expected {shape}")
            if name in ("joints_2d", "joints_3d") and not np.isfinite(arr).all():
                raise ValueError(f"sample {self.frame_id}: {name} contains non-finite values")
            setattr(self, name, arr)
        if self.depth_readouts is not None:
            if self.depth_valid is None:
                self.depth_valid = np.isfinite(self.depth_readouts)
            marked = self.depth_readouts[self.depth_valid]
            bad = marked[~((marked > 0.0) & (marked < np.inf))]  # NaN compares false
            if bad.size:
                raise ValueError(f"sample {self.frame_id}: depth_readouts marked valid must be finite and > 0 "
                                 f"(a false depth_valid, or null in a pose file, marks an invalid one), "
                                 f"got {float(bad[0])}")
            self.depth_readouts = np.where(self.depth_valid, self.depth_readouts, np.nan)

    @property
    def is_annotated(self) -> bool:
        return self.joints_3d is not None

    def gt_pose(self) -> np.ndarray | None:
        return self.joints_3d if self.joints_3d is not None else self.eval_joints_3d

    def ensure_readouts(self) -> None:
        """Cache per-joint depth readouts at the 2D joints (not the map), once,
        as :meth:`SampleBatch.from_samples` resolves them."""
        if self.depth_readouts is None or self.depth_valid is None:
            self.depth_readouts = SampleBatch.from_samples([self], len(self.joints_2d)).readouts[0]
            self.depth_valid = ~np.isnan(self.depth_readouts)


def _read_map(sample: Sample, depth: DepthMap, points: np.ndarray, source: str = "depth map") -> np.ndarray:
    """``read_depth_at(depth, points).values``, NaN where invalid, once the
    map is the size of the sample's camera image; else a ValueError names
    the frame, the map's ``source`` and both (height, width) sizes."""
    size, image = (depth.height, depth.width), (sample.camera.height, sample.camera.width)
    if size != image:
        raise ValueError(f"sample {sample.frame_id}: {source} has (height, width) {size}, the camera's image {image}")
    return read_depth_at(depth, points).values


@dataclass(frozen=True)
class SampleBatch:
    """A sample list as arrays, row i holding sample i: the form training
    and prediction work on.  Build it with :meth:`from_samples`."""

    frame_ids: np.ndarray  # (N,) str objects
    intrinsics: np.ndarray  # (N, 4) each sample's CameraIntrinsics.row, in pixels
    joints_2d: np.ndarray  # (N, J, 2) pixels
    readouts: np.ndarray  # (N, J) mm, NaN where invalid (the one mark of an invalid readout)
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
        """Stack the samples' arrays, each sample already checked when it
        was built (:meth:`Sample.__post_init__`).

        A sample whose joint count is not ``num_joints``, that has no depth
        source, or whose depth map's size is not its camera's raises
        ValueError naming the frame id and the field or the map.  A
        readout is the sample's cached one, else read from its map, else
        from its DMAP file; nothing is stored, and a run of samples that
        share a DMAP file loads it once.
        """
        n, j = len(samples), num_joints
        joints_2d = np.empty((n, j, 2))
        readouts = np.empty((n, j))
        joints_3d = np.empty((n, j, 3)) if all(s.joints_3d is not None for s in samples) else None
        visibility = np.empty((n, j), dtype=bool) if all(s.eval_visibility is not None for s in samples) else None
        # A pose file written frame by frame (as `poselift generate` writes
        # one) holds a frame's persons in adjacent records, so keeping the
        # previous DMAP loads each such file once.
        last_path, last_map = None, None
        for i, s in enumerate(samples):
            if len(s.joints_2d) != j:  # the one rule a sample cannot check alone
                raise ValueError(f"sample {s.frame_id}: joints_2d has shape {np.shape(s.joints_2d)}, "
                                 f"expected {(j, 2)}")
            joints_2d[i] = s.joints_2d
            if s.depth_readouts is not None:
                readouts[i] = s.depth_readouts
            elif s.depth is not None:
                readouts[i] = _read_map(s, s.depth, joints_2d[i])
            elif s.depth_path is not None:
                if s.depth_path != last_path:
                    last_path, last_map = s.depth_path, load_depth(s.depth_path)
                readouts[i] = _read_map(s, last_map, joints_2d[i], f"depth map {s.depth_path}")
            else:
                raise ValueError(f"sample {s.frame_id} has no depth source")
            if joints_3d is not None:
                joints_3d[i] = s.joints_3d
            if visibility is not None:
                visibility[i] = s.eval_visibility
        return cls(
            frame_ids=np.array([s.frame_id for s in samples], dtype=object),
            intrinsics=np.array([s.camera.row for s in samples], dtype=np.float64).reshape(n, 4),
            joints_2d=joints_2d,
            readouts=readouts,
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
        "camera": {f.name: (float if f.type == "float" else int)(getattr(cam, f.name)) for f in fields(cam)},
        "joints_2d": np.asarray(sample.joints_2d, dtype=np.float64).tolist(),
    }
    pose = sample.gt_pose() if use_eval_pose else sample.joints_3d
    if pose is not None:
        record["joints_3d"] = np.asarray(pose, dtype=np.float64).tolist()
    if sample.depth_path is not None:
        record["depth_path"] = sample.depth_path
    if sample.depth_readouts is not None:
        record["depth_readouts"] = [None if math.isnan(v) else v for v in sample.depth_readouts.tolist()]
    return record


def record_to_sample(record: dict, base_dir: Path | None = None) -> Sample:
    """A record's sample; a missing field raises KeyError naming it, and a
    record or camera that is not an object, a joint or readout that is not
    a JSON number, or a value :class:`Sample` or the camera refuses raises
    ValueError naming the field.  Only a null readout marks an invalid one."""
    if not isinstance(record, dict):
        raise ValueError(f"record must be a JSON object, got {type(record).__name__}")
    cam_rec = record["camera"]
    if not isinstance(cam_rec, dict):
        raise ValueError(f"field 'camera' must be an object, got {cam_rec!r}")
    try:
        camera = CameraIntrinsics(**{f.name: cam_rec[f.name] for f in fields(CameraIntrinsics)})
    except ValueError as exc:
        raise ValueError(f"camera {exc}") from None
    joints_3d = record.get("joints_3d")
    readouts = record.get("depth_readouts")
    sample = Sample(
        frame_id=record["frame_id"],
        camera=camera,
        joints_2d=numbers_from_json("joints_2d", record["joints_2d"]),
        joints_3d=None if joints_3d is None else numbers_from_json("joints_3d", joints_3d),
        depth_path=record.get("depth_path"),
        depth_readouts=None if readouts is None else numbers_from_json("depth_readouts", readouts, null_ok=True),
        depth_valid=None if readouts is None else np.not_equal(np.array(readouts, dtype=object), None),
    )
    if sample.depth_path is not None and base_dir is not None:
        sample.depth_path = str(base_dir / sample.depth_path)
    return sample


def write_pose_file(path: str | Path, samples: list[Sample], use_eval_pose: bool = False) -> None:
    """One record per sample.  An absolute ``depth_path``, as
    :func:`read_pose_file` stores it, is written relative to ``path``'s
    directory; a relative one is written as it is.  An existing file is
    rewritten in place, never truncated first (:func:`poselift.files.rewrite`)."""
    base_dir = Path(path).parent.absolute()
    with rewrite(path) as fh:
        for sample in samples:
            record = sample_to_record(sample, use_eval_pose)
            if os.path.isabs(record.get("depth_path", "")):
                record["depth_path"] = os.path.relpath(record["depth_path"], base_dir)
            fh.write(json.dumps(record) + "\n")


def read_pose_file(path: str | Path) -> list[Sample]:
    """The file's samples; a relative ``depth_path`` is stored joined to
    the file's absolute directory, so it resolves from anywhere."""
    path = Path(path)
    base_dir = path.parent.absolute()
    samples = []
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: not UTF-8 text: {exc}") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # nested deeper than the decoder recurses
                raise ValueError(f"{path}:{line_no}: invalid JSON record: {exc}") from exc
            try:
                samples.append(record_to_sample(record, base_dir=base_dir))
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


def write_dataset(data_dir: str | Path, dataset: Dataset) -> int:
    """Write ``poselift generate``'s layout: each frame's map once as
    ``depth/<frame_id>.dmap`` (set as the samples' ``depth_path``), the
    samples, and their withheld ground truth; return the number of maps.
    A sample without a map raises ValueError first, naming its frame."""
    if bare := [s.frame_id for s in dataset.all_samples() if s.depth is None]:
        raise ValueError(f"sample {bare[0]}: no depth map to write")
    data_dir = Path(data_dir)
    (data_dir / "depth").mkdir(parents=True, exist_ok=True)
    frames = group_frames(dataset.all_samples())
    for frame_id, samples in frames.items():
        save_depth(data_dir / "depth" / f"{frame_id}.dmap", samples[0].depth)
        for sample in samples:
            sample.depth_path = f"depth/{frame_id}.dmap"
    write_pose_file(data_dir / SAMPLES_FILE, dataset.all_samples())
    write_pose_file(data_dir / "gt_poses.jsonl", dataset.all_samples(), use_eval_pose=True)
    return len(frames)


def load_dataset(data_dir: str | Path) -> Dataset:
    return split_dataset(read_pose_file(Path(data_dir) / SAMPLES_FILE))


def group_frames(samples: list[Sample]) -> dict[str, list[Sample]]:
    """Group samples by frame, preserving first-appearance frame order."""
    frames: dict[str, list[Sample]] = {}
    for sample in samples:
        frames.setdefault(sample.frame_id, []).append(sample)
    return frames
