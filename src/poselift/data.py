"""Sample records, dataset split and the JSON-lines pose file format.

One record per person instance per frame:

    {"frame_id": ..., "camera": {"fx", "fy", "cx", "cy", "width", "height"},
     "joints_2d": [[x, y], ...],           # pixels
     "joints_3d": [[x, y, z], ...],        # mm, optional (annotated only)
     "depth_path": "depth/....dmap"}       # optional, relative to the file

Records without ``joints_3d`` are depth-only (weak) samples.  Floats are
written with ``repr`` precision so files round trip bit-exact.  A
:class:`Sample` checks its arrays once, when it is built from a record or
in code (``dataclasses.replace`` included); a field assigned afterwards is
not checked again.  A :class:`SampleBatch` holds a sample list as arrays
for training and prediction.  :func:`fields_from_json` builds a config
dataclass from JSON, checking each field by name and type, and
:func:`numbers_from_json` reads an array whose every element must be a
JSON number.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .depth import DepthMap, load_depth, read_depth_at, save_depth
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
    depth_readouts: np.ndarray | None = None
    depth_valid: np.ndarray | None = None
    # Ground truth withheld from training for weak samples, kept for
    # evaluation and diagnostics of synthetic data.
    eval_joints_3d: np.ndarray | None = field(default=None, repr=False)
    eval_visibility: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        """Check the arrays, raising ValueError ``sample <frame_id>: <field>
        ...``, and store them as float64 or bool; J is ``joints_2d``'s
        length.  A field assigned later is not checked again."""
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
            marked = self.depth_readouts[self._readout_mask()]
            bad = marked[~((marked > 0.0) & (marked < np.inf))]  # NaN compares false
            if bad.size:
                raise ValueError(f"sample {self.frame_id}: depth_readouts marked valid must be finite and > 0 "
                                 f"(a false depth_valid, or null in a pose file, marks an invalid one), "
                                 f"got {float(bad[0])}")

    def _readout_mask(self) -> np.ndarray:
        """Which cached readouts are valid: ``depth_valid``, else the finite ones."""
        return np.isfinite(self.depth_readouts) if self.depth_valid is None else self.depth_valid

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


def _read_map(sample: Sample, depth: DepthMap, points: np.ndarray, source: str = "depth map"):
    """``read_depth_at(depth, points)`` once the map is the size of the
    sample's camera image; else a ValueError names the frame, the map's
    ``source`` and both (height, width) sizes."""
    size, image = (depth.height, depth.width), (sample.camera.height, sample.camera.width)
    if size != image:
        raise ValueError(f"sample {sample.frame_id}: {source} has (height, width) {size}, the camera's image {image}")
    return read_depth_at(depth, points)


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
                values, ok = s.depth_readouts, s._readout_mask()
            elif s.depth is not None:
                values, ok = _read_map(s, s.depth, joints_2d[i])
            elif s.depth_path is not None:
                if s.depth_path != last_path:
                    last_path, last_map = s.depth_path, load_depth(s.depth_path)
                values, ok = _read_map(s, last_map, joints_2d[i], f"depth map {s.depth_path}")
            else:
                raise ValueError(f"sample {s.frame_id} has no depth source")
            readouts[i] = np.where(ok, values, np.nan)
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
        record["depth_readouts"] = [
            float(v) if ok else None for v, ok in zip(sample.depth_readouts, sample._readout_mask())
        ]
    return record


_NUMBER_TYPES = {int, float}  # exact types, so a JSON true or false (a bool) is none


def numbers_from_json(name: str, value, null_ok: bool = False) -> np.ndarray:
    """A JSON array of numbers (nested lists) as float64.  Any other
    element, or an integer beyond float range, raises ValueError naming
    the field; where ``null_ok``, a null element reads as NaN."""
    allowed = _NUMBER_TYPES | {type(None)} if null_ok else _NUMBER_TYPES
    stack = [value]
    while stack:
        v = stack.pop()
        if type(v) is list:
            stack.extend(v)
        elif type(v) not in allowed:
            raise ValueError(f"field {name!r} must hold numbers{' or null' if null_ok else ''}, got {v!r}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"field {name!r} holds an integer beyond float range") from None


def record_to_sample(record: dict, base_dir: Path | None = None) -> Sample:
    """A record's sample; a missing field raises KeyError naming it, and
    a record that is not a dict, a field whose JSON type does not fit (see
    :func:`_fits`), a joint or readout that is not a JSON number, or a
    camera :class:`CameraIntrinsics` refuses raises ValueError.  Only a
    null readout marks an invalid one.  The arrays are checked once, by
    :class:`Sample` itself, whose errors name the frame and the field."""
    if not isinstance(record, dict):
        raise ValueError(f"record must be a JSON object, got {type(record).__name__}")
    cam_rec = record["camera"]
    if not isinstance(cam_rec, dict):
        raise ValueError(f"field 'camera' must be an object, got {cam_rec!r}")
    depth_path = record.get("depth_path")
    typed = [("frame_id", record["frame_id"], "str"), ("depth_path", depth_path, "str | None")]
    typed += [(f"camera.{f.name}", cam_rec[f.name], f.type) for f in fields(CameraIntrinsics)]
    for name, value, annotation in typed:
        if not _fits(value, annotation):
            raise ValueError(f"field {name!r} must be {annotation}, got {value!r}")
    if depth_path is not None and base_dir is not None:
        depth_path = str(base_dir / depth_path)
    joints_3d = record.get("joints_3d")
    readouts = record.get("depth_readouts")
    return Sample(
        frame_id=record["frame_id"],
        camera=CameraIntrinsics(**{f.name: cam_rec[f.name] for f in fields(CameraIntrinsics)}),
        joints_2d=numbers_from_json("joints_2d", record["joints_2d"]),
        joints_3d=None if joints_3d is None else numbers_from_json("joints_3d", joints_3d),
        depth_path=depth_path,
        depth_readouts=None if readouts is None else numbers_from_json("depth_readouts", readouts, null_ok=True),
        depth_valid=None if readouts is None else np.not_equal(np.array(readouts, dtype=object), None),
    )


def write_pose_file(path: str | Path, samples: list[Sample], use_eval_pose: bool = False) -> None:
    """One record per sample.  An absolute ``depth_path``, as
    :func:`read_pose_file` stores it, is written relative to ``path``'s
    directory; a relative one is written as it is."""
    base_dir = Path(path).parent.absolute()
    with open(path, "w") as fh:
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
            except json.JSONDecodeError as exc:
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
    samples, and their withheld ground truth; return the number of maps."""
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


_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


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
    return isinstance(value, _JSON_TYPES[annotation]) and not isinstance(value, bool)


def check_fields(obj, rules, error: type[ValueError] = ValueError) -> None:
    """Raise ``error("<field> must be <need>, got <obj.field>")`` for the first
    ``(field, ok, need)`` in ``rules`` whose ``ok`` is false.  Comparisons
    with NaN are false, so a range rule also rejects NaN."""
    for name, ok, need in rules:
        if not ok:
            raise error(f"{name} must be {need}, got {getattr(obj, name)!r}")


def fields_from_json(cls, values, error: type[ValueError] = ValueError, defaults: bool = False):
    """``cls(**values)`` for dataclass ``cls`` from parsed JSON holding every
    field, or with ``defaults`` any over ``cls()``'s; write one back with
    ``dataclasses.asdict``.  Raise ``error`` naming a non-object's type,
    unknown or missing fields, or else the first field whose value does
    not fit its annotation.  Lists become tuples for tuple fields."""
    if not isinstance(values, dict):
        raise error(f"expected a JSON object of {cls.__name__} fields, got {type(values).__name__}")
    if defaults:
        values = {**asdict(cls()), **values}
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
