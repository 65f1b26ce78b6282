"""The three benchmark workloads: train_weak, synth_io and infer_eval.

Each workload has a ``setup`` that builds its inputs from the workload
seed, a ``begin`` for measured work done once per process, and an
``iteration`` that does one unit of the measured work and returns its
timings as a record.  ``run.py`` repeats the setup for a
median set-up time, loops iterations for the requested seconds, and
turns the records into metrics.  Output checks run outside the timed
regions and through function references taken at import time, so they
are never traced.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from poselift import data, depth, metrics, pipeline, synth
from poselift.data import Dataset, group_frames
from poselift.pipeline import TrainConfig
from poselift.synth import SceneConfig

from tracing import SpanStats, tail_level

# Untraced references for the output checks.
_read_depth_at = depth.read_depth_at
_read_pose_file = data.read_pose_file

# The scene configuration of acceptance criterion 4.
CRITERION_4_SCENE = SceneConfig(
    fx_range=(240.0, 320.0),
    root_depth_range=(2500.0, 5500.0),
    persons_range=(1, 3),
    occluder_range=(1, 2),
    occluder_size_range=(300.0, 600.0),
    yaw_range_deg=(-60.0, 60.0),
    standing_probability=0.7,
)

# train_weak trains on frozen inputs so its quality block repeats exactly:
# over five data seeds a 60-step train reached an A-3DPCK of 2.6-7.2% and
# a detection rate of 9-20%, wider than any bound could allow.
FROZEN_SEED = 2004


@dataclass(frozen=True)
class Sizes:
    hidden_dim: int         # width of both networks
    train_annotated: int    # train_weak training set
    train_weak: int
    train_epochs: int       # epochs per train_weak train call
    heldout: int            # held-out annotated samples
    synth_annotated: int    # samples generated per synth_io iteration
    synth_weak: int
    io_repeats: int         # synth_io write/read rounds per generated set
    infer_train: int        # annotated and weak samples for infer_eval's model
    infer_epochs: int
    predict_repeats: int    # infer_eval predict/evaluate rounds per iteration
    setup_repeats: int


FULL = Sizes(
    hidden_dim=1024, train_annotated=64, train_weak=64, train_epochs=40, heldout=64,
    synth_annotated=24, synth_weak=24, io_repeats=10,
    infer_train=32, infer_epochs=2, predict_repeats=10, setup_repeats=3,
)
SMOKE = Sizes(
    hidden_dim=64, train_annotated=24, train_weak=8, train_epochs=2, heldout=8,
    synth_annotated=2, synth_weak=2, io_repeats=1,
    infer_train=12, infer_epochs=1, predict_repeats=1, setup_repeats=1,
)


def _rng(*seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(seed))))


def _train_config(sizes: Sizes, epochs: int) -> TrainConfig:
    # The criterion-4 training configuration at the benchmark's width.
    return TrainConfig(
        epochs=epochs, batch_size=64, lambda_weight=1e-3, alpha=2500.0, seed=0,
        hidden_dim=sizes.hidden_dim, depth_hidden_dim=sizes.hidden_dim,
    )


# ---------------------------------------------------------------- digests

def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _array_bytes(a) -> bytes:
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str}{a.shape}".encode() + a.tobytes()


def bundle_digest(bundle) -> str:
    """Checkpoint parameters and statistics, independent of file format."""
    def chunks():
        for tag, params in (("pose", bundle.pose_params), ("depth", bundle.depth_params)):
            for name in sorted(params):
                yield f"{tag}.{name}".encode()
                yield _array_bytes(params[name])
        for name, value in sorted(bundle.stats.to_dict().items()):
            yield name.encode()
            yield _array_bytes(np.asarray(value, dtype=np.float64))
    return _sha(chunks())


def log_digest(logs: list[dict]) -> str:
    return _sha([json.dumps(logs, sort_keys=True).encode()])


def predictions_digest(frame_ids, preds) -> str:
    return _sha(
        chunk for fid, poses in zip(frame_ids, preds)
        for chunk in [fid.encode()] + [_array_bytes(p) for p in poses]
    )


def dataset_digest(samples) -> str:
    def chunks():
        seen = set()
        for s in samples:
            yield s.frame_id.encode()
            for a in (s.joints_2d, s.gt_pose(), s.depth_readouts):
                yield _array_bytes(a)
            if s.frame_id not in seen:
                seen.add(s.frame_id)
                yield _array_bytes(s.depth.values)
    return _sha(chunks())


def files_digest(root: Path) -> str:
    paths = sorted(p for p in root.rglob("*") if p.is_file())
    return _sha(
        chunk for p in paths for chunk in (str(p.relative_to(root)).encode(), p.read_bytes())
    )


# ---------------------------------------------------------------- helpers

class Outcome:
    """Operations attempted, failures, and everything a run reports."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def digest(self, name: str, value: str) -> None:
        """Record a digest; a second value under the same name must match."""
        if name in self.digests:
            self.check(self.digests[name] == value, f"{name} digest differs between repeats")
        else:
            self.digests[name] = value


def _same_array(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_readouts(a, b) -> bool:
    """Equal values with the same NaN pattern."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.array_equal(np.isnan(a), np.isnan(b))) and bool(
        np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
    )


def _check_predictions(out: Outcome, preds, spec) -> None:
    shape = (spec.num_joints, 3)
    ok = all(p.shape == shape and np.isfinite(p).all() for poses in preds for p in poses)
    out.check(ok, f"every prediction is finite with shape {shape}")


def _gt_frames(samples, frame_ids):
    frames = group_frames(samples)
    return [[s.gt_pose() for s in frames[fid]] for fid in frame_ids]


def _rate(records, key: str, count_key: str) -> float:
    """Items per second over every timing in the records; a record may hold a list.

    A total, not a median of short timings: the speed of a 2-vCPU test VM
    flipped between two levels about 35% apart every few seconds, and a
    median of millisecond timings landed on one level or the other from
    run to run.
    """
    items = seconds = 0.0
    for r in records:
        times = r[key] if isinstance(r[key], list) else [r[key]]
        items += r[count_key] * len(times)
        seconds += sum(times)
    return items / seconds


class Workload:
    """Defaults: one iteration at least, nothing to do before the loop."""

    min_iterations = 1

    def begin(self, out: Outcome) -> None:
        """Measured work done once per process, before the loop."""


# ---------------------------------------------------------------- train_weak

class TrainWeak(Workload):
    """pipeline.train with the criterion-4 configuration, then the quality block."""

    name = "train_weak"

    def __init__(self, sizes: Sizes, seed: int, work: Path) -> None:
        self.sizes = sizes
        self.config = _train_config(sizes, sizes.train_epochs)

    def setup(self, out: Outcome):
        s = self.sizes
        ds = synth.generate_dataset(_rng(FROZEN_SEED, 100), CRITERION_4_SCENE, s.train_annotated, s.train_weak)
        heldout = synth.generate_dataset(_rng(FROZEN_SEED, 200), CRITERION_4_SCENE, s.heldout, 0).annotated
        out.ops(2)
        # The first train in a process runs slower; pay it here.
        half = self.config.batch_size // 2
        pipeline.train(replace(self.config, epochs=1), Dataset(ds.annotated[:half], ds.weak[:half]))
        out.ops()
        out.digest("dataset", dataset_digest(ds.all_samples() + heldout))
        self.dataset, self.heldout = ds, heldout

    def iteration(self, i: int, out: Outcome) -> dict:
        self.bundle = None  # one model in memory at a time, so peak RSS repeats
        start = perf_counter()
        bundle, logs = pipeline.train(self.config, self.dataset)
        elapsed = perf_counter() - start
        out.ops()
        out.check(all(np.isfinite(e["loss"]) for e in logs), "training losses are finite")
        out.digest("training_log", log_digest(logs))
        out.digest("params", bundle_digest(bundle))
        self.bundle = bundle
        steps = sum(e["steps"] for e in logs)
        return {"train_s": elapsed, "samples": steps * self.config.batch_size}

    def finish(self, records, out: Outcome):
        frame_ids, preds = pipeline.predict_frames(self.bundle, self.heldout)
        report = metrics.evaluate(_gt_frames(self.heldout, frame_ids), preds)
        out.ops(2)
        _check_predictions(out, preds, self.bundle.skeleton)
        out.digest("predictions", predictions_digest(frame_ids, preds))
        rate = _rate(records, "train_s", "samples")
        return rate, {"train_samples_per_s": rate, "quality": report.to_dict()}


# ---------------------------------------------------------------- synth_io

class SynthIO(Workload):
    """generate_dataset, the `poselift generate` file layout, and read-back."""

    name = "synth_io"
    # Generation, writes and reads take milliseconds to a second each; a
    # run averages at least this many rounds, 14-18 s on a 2-vCPU VM.
    min_iterations = 8

    def __init__(self, sizes: Sizes, seed: int, work: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.work = work

    def setup(self, out: Outcome):
        # Warm every path once on a set of the measured size.
        s = self.sizes
        ds = synth.generate_dataset(_rng(self.seed, 500), CRITERION_4_SCENE, s.synth_annotated, s.synth_weak)
        self._write(self.work / "warm", ds)
        self._read(self.work / "warm")
        shutil.rmtree(self.work / "warm")
        out.ops(3)

    def _write(self, root: Path, ds: Dataset) -> None:
        """Write the dataset the way `poselift generate` does."""
        (root / "depth").mkdir(parents=True, exist_ok=True)
        written: dict[str, str] = {}
        for sample in ds.all_samples():
            if sample.frame_id not in written:
                rel = f"depth/{sample.frame_id}.dmap"
                depth.save_depth(root / rel, sample.depth)
                written[sample.frame_id] = rel
            sample.depth_path = written[sample.frame_id]
        data.write_pose_file(root / "samples.jsonl", ds.all_samples())
        data.write_pose_file(root / "gt_poses.jsonl", ds.all_samples(), use_eval_pose=True)

    @staticmethod
    def _read(root: Path):
        """Read samples back as captured footage arrives: DMAPs, no cached readouts."""
        samples = data.read_pose_file(root / "samples.jsonl")
        cached = [(s.depth_readouts, s.depth_valid) for s in samples]
        for s in samples:
            s.depth_readouts = s.depth_valid = None
        for s in samples:
            s.ensure_readouts()
        return samples, cached

    def iteration(self, i: int, out: Outcome) -> dict:
        s = self.sizes
        start = perf_counter()
        ds = synth.generate_dataset(_rng(self.seed, 501, i), CRITERION_4_SCENE, s.synth_annotated, s.synth_weak)
        gen_s = perf_counter() - start
        out.ops()
        originals = ds.all_samples()
        root = self.work / f"set{i}"
        write_s, read_s = [], []
        for r in range(s.io_repeats):
            shutil.rmtree(root, ignore_errors=True)
            start = perf_counter()
            self._write(root, ds)
            write_s.append(perf_counter() - start)
            start = perf_counter()
            back, cached = self._read(root)
            read_s.append(perf_counter() - start)
            out.ops(2)
        self._check(out, originals, back, cached, root)
        out.digest(f"dataset_files.{i}", files_digest(root))
        shutil.rmtree(root)
        n = len(originals)
        frames = len({x.frame_id for x in originals})
        return {"gen_s": gen_s, "write_s": write_s, "read_s": read_s, "samples": n,
                "frames_read": frames * s.io_repeats}

    @staticmethod
    def _check(out: Outcome, originals, back, cached, root: Path) -> None:
        out.check(len(back) == len(originals), "read-back sample count")
        joints_ok = readouts_ok = dmap_ok = True
        for orig, got, (readouts, valid) in zip(originals, back, cached):
            joints_ok &= got.frame_id == orig.frame_id and _same_array(got.joints_2d, orig.joints_2d)
            joints_ok &= _same_array(got.joints_3d, orig.joints_3d)
            readouts_ok &= _same_readouts(readouts, orig.depth_readouts)
            readouts_ok &= _same_array(valid, orig.depth_valid)
            expected = _read_depth_at(orig.depth, orig.joints_2d)
            dmap_ok &= _same_readouts(got.depth_readouts, expected.values)
            dmap_ok &= _same_array(got.depth_valid, expected.valid)
        gt = _read_pose_file(root / "gt_poses.jsonl")
        joints_ok &= len(gt) == len(originals) and all(
            _same_array(g.joints_3d, o.gt_pose()) for g, o in zip(gt, originals))
        out.check(joints_ok, "read-back joints equal the generated ones")
        out.check(readouts_ok, "read-back cached readouts equal the generated ones, NaN pattern included")
        out.check(dmap_ok, "readouts from the written DMAPs equal readouts from the generated maps")

    def finish(self, records, out: Outcome):
        # One sample's cost: its generation plus one write and one read,
        # each I/O time averaged over the io_repeats rounds.
        samples = sum(r["samples"] for r in records)
        seconds = sum(r["gen_s"] + _mean(r["write_s"]) + _mean(r["read_s"]) for r in records)
        return samples / seconds, {
            "generate_samples_per_s": _rate(records, "gen_s", "samples"),
            "dataset_write_samples_per_s": _rate(records, "write_s", "samples"),
            "dataset_read_samples_per_s": _rate(records, "read_s", "samples"),
        }


# ---------------------------------------------------------------- infer_eval

# One evaluate takes about a millisecond; time several per round.
EVALS_PER_ROUND = 5


class InferEval(Workload):
    """save_bundle, load_bundle, read the held-out file, predict_frames, evaluate."""

    name = "infer_eval"

    def __init__(self, sizes: Sizes, seed: int, work: Path) -> None:
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.checkpoint = work / "model.json"
        self.samples_path = work / "heldout" / "samples.jsonl"

    def setup(self, out: Outcome):
        s = self.sizes
        ds = synth.generate_dataset(_rng(self.seed, 400), CRITERION_4_SCENE, s.infer_train, s.infer_train)
        heldout = synth.generate_dataset(_rng(self.seed, 401), CRITERION_4_SCENE, s.heldout, 0).annotated
        self.samples_path.parent.mkdir(parents=True, exist_ok=True)
        data.write_pose_file(self.samples_path, heldout)
        bundle, logs = pipeline.train(_train_config(s, s.infer_epochs), ds)
        frame_ids, preds = pipeline.predict_frames(bundle, heldout)
        out.ops(5)
        out.digest("training_log", log_digest(logs))
        out.digest("params", bundle_digest(bundle))
        out.digest("predictions", predictions_digest(frame_ids, preds))
        self.bundle, self.heldout = bundle, heldout
        self.gt = _gt_frames(heldout, frame_ids)

    def begin(self, out: Outcome) -> None:
        """One save and one load per process, as `poselift train` and
        `poselift predict` pay them.  On a 2-vCPU test VM the first save
        took 14-19 s in six processes and nine later saves 12-16 s, so
        repeated saves would mix two different costs."""
        start = perf_counter()
        pipeline.save_bundle(self.checkpoint, self.bundle)
        self.save_s = perf_counter() - start
        self.bundle = None  # nothing but the file holds the model now
        start = perf_counter()
        self.loaded = pipeline.load_bundle(self.checkpoint)
        self.load_s = perf_counter() - start
        out.ops(2)
        out.check(bundle_digest(self.loaded) == out.digests["params"],
                  "load_bundle(save_bundle(b)) parameters are bit-equal")
        self.samples = data.read_pose_file(self.samples_path)
        for s in self.samples:
            s.ensure_readouts()
        out.ops()
        out.check(len(self.samples) == len(self.heldout) and all(
            _same_readouts(a.depth_readouts, b.depth_readouts) for a, b in zip(self.samples, self.heldout)),
            "read-back held-out readouts equal the generated ones, NaN pattern included")

    def iteration(self, i: int, out: Outcome) -> dict:
        predict_s, eval_s = [], []
        for _ in range(self.sizes.predict_repeats):
            start = perf_counter()
            frame_ids, preds = pipeline.predict_frames(self.loaded, self.samples)
            predict_s.append(perf_counter() - start)
            start = perf_counter()
            for _ in range(EVALS_PER_ROUND):
                report = metrics.evaluate(self.gt, preds)
            eval_s.append(perf_counter() - start)
            out.ops(1 + EVALS_PER_ROUND)
        _check_predictions(out, preds, self.loaded.skeleton)
        out.check(predictions_digest(frame_ids, preds) == out.digests["predictions"],
                  "predictions from the loaded bundle equal the in-memory ones")
        return {"predict_s": predict_s, "eval_s": eval_s,
                "poses": len(self.samples), "eval_poses": EVALS_PER_ROUND * len(self.samples),
                "matched": report.matched_poses}

    def finish(self, records, out: Outcome):
        # One pose's cost: its prediction plus its share of one evaluate.
        # The save and the load are left out: their run-to-run spread on a
        # 2-vCPU test VM (0.25-0.34 over ten runs) was wider than any bound.
        poses = sum(r["poses"] * len(r["predict_s"]) for r in records)
        seconds = sum(sum(r["predict_s"]) + sum(r["eval_s"]) / EVALS_PER_ROUND for r in records)
        return poses / seconds, {
            "predict_poses_per_s": _rate(records, "predict_s", "poses"),
            "eval_poses_per_s": _rate(records, "eval_s", "eval_poses"),
            "checkpoint_save_s": self.save_s,
            "checkpoint_load_s": self.load_s,
            "checkpoint_mb": self.checkpoint.stat().st_size / 1e6,
        }


WORKLOADS = {w.name: w for w in (TrainWeak, SynthIO, InferEval)}


# ---------------------------------------------------------------- per-layer metrics

# Spans reported by every workload as rates: calls per second at the
# median and at the tail duration, plus the call count.  A workload that
# never calls a span reports 0 for all three.
TIMED_SPANS = (
    "nn.adam_step", "nn.forward_train", "nn.backward", "nn.forward_eval",
    "pipeline.build_inputs", "pipeline.predicted_joint_depths", "pipeline.joint_depth_backward",
    "pipeline.predict_pose", "pipeline.save_bundle", "pipeline.load_bundle",
    "losses.total_loss",
    "synth.render_clean_depth", "synth.generate_pose",
    "depth.save_depth", "depth.load_depth", "depth.read_depth_at",
    "data.write_pose_file", "data.read_pose_file", "data.ensure_readouts",
    "metrics.match_poses", "metrics.evaluate",
)


def layer_metrics(st: SpanStats, records) -> dict:
    """Every per-layer metric, the same set on every workload."""
    m = {}
    for name in TIMED_SPANS:
        m.update(_timing(st, name))
    m.update(_timing(st, "synth.render_depth", self_time=True))
    m["nn.adam_step.share"] = (st.total("nn.adam_step") / st.wall_s, "share")
    m["nn.adam_step.gbps_computed"] = (_per_s(st, "nn.adam_step") / 1e9, "GB/s")
    m["nn.forward_train.gflops_computed"] = (_per_s(st, "nn.forward_train") / 1e9, "GFLOP/s")
    m["pipeline.zoom_augment.calls"] = (st.calls("pipeline.zoom_augment"), "count")
    m["pipeline.train.self_share"] = (
        _ratio(st.self_total_of("pipeline.train"), st.total("pipeline.train")), "share")
    m["pipeline.predict_frames.self_share"] = (
        _ratio(st.self_total_of("pipeline.predict_frames"), st.total("pipeline.predict_frames")), "share")
    m["pipeline.save_bundle.mb_per_s"] = (_per_s(st, "pipeline.save_bundle") / 1e6, "MB/s")
    m["pipeline.load_bundle.mb_per_s"] = (_per_s(st, "pipeline.load_bundle") / 1e6, "MB/s")
    m["synth.render_clean_depth.share"] = (st.total("synth.render_clean_depth") / st.wall_s, "share")
    m["synth.render_clean_depth.capsules_per_s"] = (_per_s(st, "synth.render_clean_depth"), "1/s")
    m["depth.load_depth.calls_per_frame"] = (
        _ratio(st.calls("depth.load_depth"), sum(r.get("frames_read", 0) for r in records)), "count")
    m["metrics.matched_poses"] = (records[-1].get("matched", 0), "count")
    return m


def _timing(st: SpanStats, name: str, self_time: bool = False) -> dict:
    """Rates at the p50 and the tail duration, and the call count, of one span name."""
    prefix = "self_" if self_time else ""
    values = (st.self_times if self_time else st.durations).get(name, [])
    p50 = st.percentile(name, 50.0, self_time)
    tail = st.percentile(name, tail_level(len(values)), self_time)
    return {
        f"{name}.{prefix}rate_p50": (_ratio(1.0, p50) if values else 0.0, "1/s"),
        f"{name}.{prefix}rate_tail": (_ratio(1.0, tail) if values else 0.0, "1/s"),
        f"{name}.calls": (len(values), "count"),
    }


def _per_s(st: SpanStats, name: str) -> float:
    """Work recorded on a span name per second spent in it; 0 if never called."""
    return _ratio(st.work.get(name, 0.0), st.total(name))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _mean(values) -> float:
    return sum(values) / len(values)
