"""Acceptance suite: the top-level guarantees of the library.

Each test covers one release criterion and prints a single PASS line
with the measured numbers when it holds (run with ``-s`` to see them):

  1. analytic gradients match central finite differences everywhere
  2. robust penalty: bounded, exact half-saturation, influence profile
  3. the metric suite matches an independent brute-force recomputation
  4. weak depth supervision improves absolute metrics on a fixed-seed
     held-out benchmark (3 seeds, medians, budgeted at 10 minutes)
  5. occluded joints contribute < 25% of the per-joint gradient of
     visible joints once training has settled
  6. bit-exact reproducibility of training runs and file formats
  7. geometry and skeleton round trips at 1e-6 or better

The benchmark scenes, training lengths, lambda and alpha in criteria 4
and 5 were tuned once on synthetic data and are frozen here.
"""

import json
import time

import numpy as np
import pytest

from poselift.data import Dataset, group_frames, read_pose_file, write_pose_file
from poselift.depth import DepthMap, load_depth, save_depth
from poselift.geometry import (
    CameraIntrinsics,
    denormalize_2d,
    normalize_2d,
    project,
    zoom_points_2d,
    zoom_pose_3d,
)
from poselift.gradcheck import run_all
from poselift.losses import gm_grad, gm_loss
from poselift.metrics import evaluate
from poselift.nn import lr_schedule
from poselift.pipeline import TrainConfig, predict_frames, save_bundle, train
from poselift.skeleton import (
    default_skeleton,
    height_normalize,
    knee_neck_distance,
    pose_to_vector,
    vector_to_pose,
)
from poselift.synth import SceneConfig, generate_dataset

SPEC = default_skeleton()


def _rng(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    results = run_all(0)
    elapsed = time.perf_counter() - start
    assert results, "gradient suite produced no checks"
    for r in results:
        assert r.passed, f"{r.name}: max rel err {r.max_rel_err:.3e} over {r.tolerance:.0e}"
        assert r.max_rel_err < 1e-5, f"{r.name}: {r.max_rel_err:.3e}"
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    worst = max(r.max_rel_err for r in results)
    print(f"PASS criterion 1: {len(results)} gradient checks, "
          f"max rel err {worst:.2e} < 1e-5, {elapsed:.1f}s < 30s")


def test_criterion_2_robust_loss_properties():
    # Bounded in [0, 1) over six decades of residuals, several scales.
    for alpha in (0.04, 1.0, 2500.0):
        root = np.sqrt(alpha)
        x = np.geomspace(root * 1e-3, root * 1e3, 120001)
        x = np.concatenate([-x[::-1], [0.0], x])
        rho = gm_loss(x, alpha)
        assert (rho >= 0.0).all() and (rho < 1.0).all()
        assert rho[-1] > 0.999999  # saturates toward 1

        # Half saturation is exact: x*x is by construction the float
        # alpha, so rho = alpha / (2*alpha) = 0.5 with no rounding.
        for mag in (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            scaled = mag * root
            for s in (scaled, -scaled):
                assert gm_loss(np.array(s), s * s) == 0.5

        # Influence |rho'| peaks at sqrt(alpha/3) and decays beyond.
        peak = np.sqrt(alpha / 3.0)
        grid = np.geomspace(peak * 1e-2, peak * 1e2, 200001)
        mags = np.abs(gm_grad(grid, alpha))
        best = grid[np.argmax(mags)]
        assert best == pytest.approx(peak, rel=1e-3)
        analytic_peak = 3.0 * np.sqrt(3.0) / (8.0 * np.sqrt(alpha))
        assert np.abs(gm_grad(np.array(peak), alpha)) == pytest.approx(analytic_peak, rel=1e-12)
        tail = np.geomspace(peak, root * 1e3, 50001)
        tail_mags = np.abs(gm_grad(tail, alpha))
        assert (np.diff(tail_mags) <= 0.0).all()
    print("PASS criterion 2: rho in [0,1), rho(sqrt(alpha)) == 0.5 exactly over "
          "6 decades, |rho'| peaks at sqrt(alpha/3) and decays monotonically")


def _brute_force_report(gt_frames, pred_frames, root_index, match_threshold,
                        pck_threshold, detected_only):
    """Plain-loop recomputation of matching and every metric."""
    matching = []
    for gt_poses, pred_poses in zip(gt_frames, pred_frames):
        pairs = sorted(
            (float(np.linalg.norm(np.asarray(g, float)[root_index]
                                  - np.asarray(p, float)[root_index])), gi, pi)
            for gi, g in enumerate(gt_poses)
            for pi, p in enumerate(pred_poses)
        )
        assigned = [-1] * len(gt_poses)
        used = set()
        for dist, gi, pi in pairs:
            if dist > match_threshold or assigned[gi] >= 0 or pi in used:
                continue
            assigned[gi] = pi
            used.add(pi)
        matching.append(assigned)

    a_errs, r_errs = [], []
    hits_a = hits_r = pck_total = matched = gt_total = 0
    for gt_poses, pred_poses, assigned in zip(gt_frames, pred_frames, matching):
        for gi, pi in enumerate(assigned):
            gt_total += 1
            gt = np.asarray(gt_poses[gi], float)
            if pi < 0:
                if not detected_only:
                    pck_total += gt.shape[0]
                continue
            matched += 1
            pred = np.asarray(pred_poses[pi], float)
            err = np.sqrt(((gt - pred) ** 2).sum(axis=1))
            aligned = pred - pred[root_index] + gt[root_index]
            rerr = np.sqrt(((gt - aligned) ** 2).sum(axis=1))
            a_errs.extend(err)
            r_errs.extend(rerr)
            hits_a += int((err < pck_threshold).sum())
            hits_r += int((rerr < pck_threshold).sum())
            pck_total += gt.shape[0]
    return {
        "a_mpjpe": float(np.mean(a_errs)) if a_errs else float("nan"),
        "r_mpjpe": float(np.mean(r_errs)) if r_errs else float("nan"),
        "a_3dpck": 100.0 * hits_a / pck_total if pck_total else float("nan"),
        "r_3dpck": 100.0 * hits_r / pck_total if pck_total else float("nan"),
        "detection_rate": 100.0 * matched / gt_total if gt_total else float("nan"),
        "matched_poses": matched,
        "gt_poses": gt_total,
    }


def _close(a, b):
    if isinstance(a, float) and np.isnan(a):
        return isinstance(b, float) and np.isnan(b)
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_criterion_3_metric_oracle_equivalence():
    rng = _rng(33)
    for trial in range(100):
        n_frames = int(rng.integers(1, 6))
        gt_frames, pred_frames = [], []
        for _ in range(n_frames):
            gts = [rng.normal(0, 400, (17, 3)) + [0, 0, 3500] for _ in range(rng.integers(0, 5))]
            preds = [g + rng.normal(0, 120, (17, 3)) for g in gts if rng.random() < 0.7]
            preds += [rng.normal(0, 400, (17, 3)) + [0, 0, 3500]
                      for _ in range(rng.integers(0, 3))]
            rng.shuffle(preds)
            gt_frames.append(gts)
            pred_frames.append(preds)
        detected_only = bool(rng.random() < 0.3)
        report = evaluate(gt_frames, pred_frames, detected_only=detected_only)
        ref = _brute_force_report(gt_frames, pred_frames, 14, 250.0, 150.0, detected_only)
        for key, expected in ref.items():
            assert _close(getattr(report, key), expected), (trial, key)

    # The PCK threshold is strict: an error of exactly 150 mm misses.
    gt = [[np.zeros((17, 3)) + [0, 0, 3000]]]
    at_threshold = [[gt[0][0] + [150.0, 0.0, 0.0]]]
    just_inside = [[gt[0][0] + [np.nextafter(150.0, 0.0), 0.0, 0.0]]]
    assert evaluate(gt, at_threshold).a_3dpck == 0.0
    assert evaluate(gt, just_inside).a_3dpck == 100.0
    print("PASS criterion 3: 100 random instances match the brute-force "
          "reference to 1e-9; the exact 150mm boundary is a miss")


def test_criterion_4_weak_supervision_ablation():
    start = time.perf_counter()
    bench_scene = SceneConfig(
        fx_range=(240.0, 320.0),
        root_depth_range=(2500.0, 5500.0),
        persons_range=(1, 3),
        occluder_range=(1, 2),
        occluder_size_range=(300.0, 600.0),
        yaw_range_deg=(-60.0, 60.0),
        standing_probability=0.7,
    )
    eval_ds = generate_dataset(_rng([999, 200]), bench_scene, 400, 0)
    gt_by_frame = group_frames(eval_ds.annotated)

    reports = {0.0: [], 1e-3: []}
    for seed in (0, 1, 2):
        ds = generate_dataset(_rng([seed, 100]), bench_scene, 200, 2000)
        for lam in (0.0, 1e-3):
            config = TrainConfig(epochs=40, lambda_weight=lam, alpha=2500.0, seed=seed)
            data = Dataset(annotated=ds.annotated, weak=ds.weak if lam > 0 else [])
            bundle, _ = train(config, data, SPEC)
            frame_ids, preds = predict_frames(bundle, eval_ds.annotated)
            gt = [[s.gt_pose() for s in gt_by_frame[fid]] for fid in frame_ids]
            reports[lam].append(evaluate(gt, preds))

    elapsed = time.perf_counter() - start
    base_mpjpe = float(np.median([r.a_mpjpe for r in reports[0.0]]))
    weak_mpjpe = float(np.median([r.a_mpjpe for r in reports[1e-3]]))
    base_pck = float(np.median([r.a_3dpck for r in reports[0.0]]))
    weak_pck = float(np.median([r.a_3dpck for r in reports[1e-3]]))
    assert weak_mpjpe <= base_mpjpe, f"A-MPJPE {weak_mpjpe:.1f} vs baseline {base_mpjpe:.1f}"
    assert weak_pck >= base_pck, f"A-3DPCK {weak_pck:.2f} vs baseline {base_pck:.2f}"
    assert elapsed <= 600.0, f"benchmark took {elapsed:.0f}s"
    print(f"PASS criterion 4: median A-MPJPE {weak_mpjpe:.1f}mm (weak) <= "
          f"{base_mpjpe:.1f}mm (baseline), A-3DPCK {weak_pck:.2f}% >= "
          f"{base_pck:.2f}%, {elapsed:.0f}s <= 600s")


def test_criterion_5_occlusion_rejection():
    occ_scene = SceneConfig(
        fx_range=(240.0, 320.0),
        root_depth_range=(3000.0, 5500.0),
        persons_range=(1, 1),
        occluder_range=(1, 2),
        occluder_size_range=(300.0, 600.0),
        occluder_depth_fraction=(0.12, 0.35),
        yaw_range_deg=(-30.0, 30.0),
        standing_probability=1.0,
        joint_jitter_deg=5.0,
    )
    ds = generate_dataset(_rng([0, 100]), occ_scene, 150, 1200)
    config = TrainConfig(epochs=9, lambda_weight=1e-3, alpha=2500.0, seed=0)
    _, logs = train(config, ds, SPEC)

    post = [e for e in logs if e["epoch"] > 5]
    visible_n = sum(e["weak_grad_visible_n"] for e in post)
    occluded_n = sum(e["weak_grad_occluded_n"] for e in post)
    assert visible_n > 0 and occluded_n > 0
    visible = sum(e["weak_grad_visible"] * e["weak_grad_visible_n"] for e in post) / visible_n
    occluded = sum(e["weak_grad_occluded"] * e["weak_grad_occluded_n"] for e in post) / occluded_n
    ratio = occluded / visible
    assert ratio < 0.25, f"occluded/visible gradient ratio {ratio:.3f}"
    print(f"PASS criterion 5: occluded joints get {100 * ratio:.1f}% of the "
          f"per-joint gradient of visible joints (< 25%) after epoch 5")


def test_criterion_6_determinism_and_formats(tmp_path):
    ds = generate_dataset(_rng([5, 100]), SceneConfig(), 24, 12)
    config = TrainConfig(epochs=3, batch_size=8, hidden_dim=64, num_blocks=1,
                         depth_hidden_dim=64, depth_num_blocks=1,
                         lambda_weight=1e-3, alpha=2500.0, seed=0)
    bundle_a, logs_a = train(config, ds, SPEC)
    bundle_b, logs_b = train(config, ds, SPEC)
    assert json.dumps(logs_a) == json.dumps(logs_b)
    save_bundle(tmp_path / "a.json", bundle_a)
    save_bundle(tmp_path / "b.json", bundle_b)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    rng = _rng(61)
    values = rng.uniform(500.0, 9000.0, size=(32, 40)).astype(np.float32)
    values[rng.random((32, 40)) < 0.05] = np.nan
    save_depth(tmp_path / "m.dmap", DepthMap(values))
    assert load_depth(tmp_path / "m.dmap").values.tobytes() == values.tobytes()

    write_pose_file(tmp_path / "one.jsonl", ds.all_samples())
    back = read_pose_file(tmp_path / "one.jsonl")
    write_pose_file(tmp_path / "two.jsonl", back)
    assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "two.jsonl").read_bytes()

    schedule = (config.lr_decay, config.lr_decay_every)
    assert lr_schedule(0.001, 0, *schedule) == 0.001
    assert lr_schedule(0.001, 4, *schedule) == 0.00096
    assert lr_schedule(0.001, 8, *schedule) == 0.0009216
    print("PASS criterion 6: bit-identical logs and checkpoints across equal "
          "seeds; depth map and pose file round trips are byte-exact; "
          "lr at epochs 0/4/8 is exactly 0.001/0.00096/0.0009216")


def test_criterion_7_geometry_and_skeleton_invariants():
    rng = _rng(71)
    worst_norm = worst_comp = worst_zoom = 0.0
    for _ in range(50):
        cam = CameraIntrinsics(
            fx=float(rng.uniform(200, 400)), fy=float(rng.uniform(200, 400)),
            cx=float(rng.uniform(60, 100)), cy=float(rng.uniform(40, 80)), width=160, height=120,
        )
        pts = rng.uniform(-50.0, 250.0, size=(17, 2))
        back = denormalize_2d(normalize_2d(pts, cam), cam)
        worst_norm = max(worst_norm, float(np.abs(back - pts).max()))

        pose = rng.normal(0.0, 400.0, size=(17, 3)) + [0.0, 0.0, 4000.0]
        again = vector_to_pose(pose_to_vector(pose, SPEC), SPEC)
        worst_comp = max(worst_comp, float(np.abs(again - pose).max()))

        factor = float(rng.uniform(1.0, 1.5))
        via_3d = project(zoom_pose_3d(pose, factor), cam)
        via_2d = zoom_points_2d(project(pose, cam), cam, factor)
        worst_zoom = max(worst_zoom, float(np.abs(via_3d - via_2d).max()))

        normalized = height_normalize(pose, SPEC, target_length=920.0)
        got = knee_neck_distance(normalized, SPEC)
        assert got == pytest.approx(920.0, rel=1e-9)
        np.testing.assert_array_equal(normalized[SPEC.root], pose[SPEC.root])

    assert worst_norm <= 1e-6
    assert worst_comp <= 1e-6
    assert worst_zoom <= 1e-6
    print(f"PASS criterion 7: round trips at 1e-6 or better (normalize "
          f"{worst_norm:.1e}, compose {worst_comp:.1e}, zoom {worst_zoom:.1e}); "
          f"knee-to-neck target hit to 1e-9 with the hip fixed")
