"""Command line entry points: generate, train, predict, eval, gradcheck."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import checks, compiled
from .data import SAMPLES_FILE, Sample, group_frames, load_dataset, read_pose_file, write_dataset, write_pose_file
from .files import rewrite
from .gradcheck import run_all
from .metrics import MATCH_THRESHOLD_MM, PCK_THRESHOLD_MM, check_threshold, evaluate
from .pipeline import TrainConfig, load_bundle, predict_frames, save_bundle, train
from .skeleton import DegeneratePoseError, SkeletonSpec, default_skeleton, height_normalize, load_skeleton
from .synth import SceneConfig, generate_dataset


def _load_config_section(path: str | None, section: str) -> dict:
    """Read a JSON config object; a file may be flat or hold per-command sections."""
    if path is None:
        return {}
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: config is not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # nested deeper than the decoder recurses
        raise ValueError(f"{path}: invalid JSON config: {exc}") from exc
    if isinstance(blob, dict) and section in blob:
        blob = blob[section]
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: expected a JSON object of config fields, got {type(blob).__name__}")
    return dict(blob)


def _config_from_file(cls, path: str | None, values: dict):
    """``cls.from_dict(values)``, the fields read from the file at ``path``;
    an error names the file."""
    try:
        return cls.from_dict(values)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _cmd_generate(args: argparse.Namespace) -> int:
    section = _load_config_section(args.config, "scene")
    counts = {}
    for name, default in (("n_annotated", 200), ("n_weak", 400)):
        value = section.pop(name, default)
        if not (checks.fits(value, "int") and value >= 0):
            raise ValueError(f"{args.config}: config field {name!r} must be an int >= 0, got {value!r}")
        flag = getattr(args, name)
        if flag is not None and flag < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 0, got {flag}")
        counts[name] = value if flag is None else flag
    config = _config_from_file(SceneConfig, args.config, section)

    rng = np.random.Generator(np.random.Philox(args.seed))
    dataset = generate_dataset(rng, config, counts["n_annotated"], counts["n_weak"])
    depth_maps = write_dataset(args.out, dataset)
    print(f"wrote {len(dataset.annotated)} annotated + {len(dataset.weak)} weak samples "
          f"({depth_maps} depth maps) to {Path(args.out)}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    config = _config_from_file(TrainConfig, args.config, _load_config_section(args.config, "train"))
    flags = {f.name: getattr(args, f.name) for f in fields(TrainConfig) if getattr(args, f.name) is not None}
    config = replace(config, **flags)

    dataset = load_dataset(args.data)
    spec = load_skeleton(args.skeleton) if args.skeleton else default_skeleton()
    bundle, logs = train(config, dataset, spec)
    save_bundle(args.out, bundle)
    if args.log_file:
        with rewrite(args.log_file) as fh:
            for entry in logs:
                fh.write(json.dumps(entry) + "\n")
    for entry in logs:
        print(json.dumps(entry))
    print(f"saved model to {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.model)
    samples = read_pose_file(Path(args.data) / SAMPLES_FILE)
    frame_ids, pred_frames = predict_frames(bundle, samples)
    by_frame = group_frames(samples)
    out_samples = []
    for fid, poses in zip(frame_ids, pred_frames):
        for src, pose in zip(by_frame[fid], poses):
            out_samples.append(Sample(frame_id=fid, camera=src.camera, joints_2d=src.joints_2d, joints_3d=pose))
    write_pose_file(args.out, out_samples)
    print(f"wrote {len(out_samples)} predicted poses to {args.out}")
    return 0


def _frames_from_file(path: str, spec: SkeletonSpec, normalized: bool) -> dict[str, list[np.ndarray]]:
    """The file's 3D poses by frame, height-normalized if ``normalized``;
    an error names the file and the frame."""
    frames: dict[str, list[np.ndarray]] = {}
    for sample in read_pose_file(path):
        pose = sample.joints_3d
        if pose is None:
            raise ValueError(f"{path}: record for frame {sample.frame_id} has no joints_3d")
        if len(pose) != spec.num_joints:
            raise ValueError(f"{path}: a pose in frame {sample.frame_id} has {len(pose)} joints, "
                             f"the skeleton has {spec.num_joints}")
        if normalized:
            try:
                pose = height_normalize(pose, spec)
            except DegeneratePoseError as exc:
                raise DegeneratePoseError(f"{path}: a pose in frame {sample.frame_id}: {exc}") from exc
        frames.setdefault(sample.frame_id, []).append(pose)
    return frames


def _cmd_eval(args: argparse.Namespace) -> int:
    check_threshold("--match-threshold", args.match_threshold)
    check_threshold("--pck-threshold", args.pck_threshold)
    spec = load_skeleton(args.skeleton) if args.skeleton else default_skeleton()
    gt = _frames_from_file(args.gt, spec, args.normalized_skeletons)
    pred = _frames_from_file(args.pred, spec, args.normalized_skeletons)
    gt_frames = [gt[fid] for fid in gt]
    pred_frames = [pred.get(fid, []) for fid in gt]

    report = evaluate(
        gt_frames,
        pred_frames,
        root_index=spec.root,
        match_threshold=args.match_threshold,
        pck_threshold=args.pck_threshold,
        detected_only=args.detected_only,
    )
    print(report.format_table())
    if args.out:
        with rewrite(args.out) as fh:
            fh.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    results = run_all(args.seed)
    failed = 0
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name:<16s} max_rel_err={r.max_rel_err:.3e} tol={r.tolerance:.0e}")
        failed += 0 if r.passed else 1
    if failed:
        print(f"{failed} gradient check(s) failed")
        return 1
    print(f"all {len(results)} gradient checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poselift")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic RGB-D dataset")
    p.add_argument("--config", help="JSON config (SceneConfig fields, or under a 'scene' key)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-annotated", type=int, dest="n_annotated")
    p.add_argument("--n-weak", type=int, dest="n_weak")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="train on a generated dataset")
    p.add_argument("--config", help="JSON config (TrainConfig fields, or under a 'train' key)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--skeleton", help="skeleton spec JSON (defaults to the built-in layout)")
    p.add_argument("--log-file", dest="log_file")
    for f in fields(TrainConfig):
        p.add_argument("--" + f.name.replace("_", "-"), type={"int": int, "float": float}[f.type], dest=f.name)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict 3D poses for a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="compare predicted against ground-truth poses")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out")
    p.add_argument("--skeleton")
    p.add_argument("--detected-only", action="store_true", dest="detected_only")
    p.add_argument("--normalized-skeletons", action="store_true", dest="normalized_skeletons")
    p.add_argument("--match-threshold", type=float, default=MATCH_THRESHOLD_MM, dest="match_threshold")
    p.add_argument("--pck-threshold", type=float, default=PCK_THRESHOLD_MM, dest="pck_threshold")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)  # checked before a command creates anything
    if seed is not None and seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    before = compiled.runs()
    status = args.func(args)
    for loop, calls in (compiled.runs() - before).items():  # stderr: stdout and the files stay the same
        print(f"{loop}: {calls} calls", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
