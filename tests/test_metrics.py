"""Evaluation metric tests.

The matcher and every metric are checked against a small independent
reimplementation (repeatedly assigning the globally closest unmatched
pair) plus hand-built frames that pin the boundary rules: matching uses
<= on the root distance, PCK uses strict < on the joint error, and
undetected poses count every joint as a miss unless detected_only.
"""

import math

import numpy as np
import pytest

from poselift.metrics import MATCH_THRESHOLD_MM, PCK_THRESHOLD_MM, evaluate, match_poses


def _pose(root, J=17, root_index=14, spread=100.0, rng=None):
    rng = rng or np.random.default_rng(0)
    pose = rng.normal(scale=spread, size=(J, 3)) + np.asarray(root, dtype=np.float64)
    pose[root_index] = root
    return pose


def _reference_match(gt_frame, pred_frame, threshold, root_index):
    """Assign the globally closest unmatched (gt, pred) pair, repeatedly."""
    pairs = []
    for g, gp in enumerate(gt_frame):
        for p, pp in enumerate(pred_frame):
            root_g = np.asarray(gp, dtype=np.float64)[root_index]
            root_p = np.asarray(pp, dtype=np.float64)[root_index]
            dist = float(np.linalg.norm(root_g - root_p))
            if dist <= threshold:
                pairs.append((dist, g, p))
    assigned = np.full(len(gt_frame), -1, dtype=int)
    while pairs:
        dist, g, p = min(pairs)
        assigned[g] = p
        pairs = [c for c in pairs if c[1] != g and c[2] != p]
    return assigned


class TestMatching:
    def test_matches_reference_on_random_frames(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            root_index = int(rng.integers(0, 5))
            J = int(rng.integers(root_index + 1, 8))
            gt = [_pose(rng.uniform(-500, 500, 3), J, root_index, rng=rng)
                  for _ in range(rng.integers(0, 5))]
            pred = [_pose(rng.uniform(-500, 500, 3), J, root_index, rng=rng)
                    for _ in range(rng.integers(0, 5))]
            threshold = float(rng.uniform(100.0, 800.0))
            got = match_poses([gt], [pred], threshold, root_index)[0]
            expected = _reference_match(gt, pred, threshold, root_index)
            np.testing.assert_array_equal(got, expected)

    def test_closest_prediction_wins(self):
        gt = [_pose([0.0, 0.0, 3000.0]), _pose([400.0, 0.0, 3000.0])]
        pred = [_pose([90.0, 0.0, 3000.0])]
        assigned = match_poses([gt], [pred])[0]
        # The single prediction is 90 mm from the first root, 310 mm from
        # the second; only the first is within threshold and closest.
        assert list(assigned) == [0, -1]

    def test_one_to_one_assignment(self):
        gt = [_pose([0.0, 0.0, 3000.0]), _pose([100.0, 0.0, 3000.0])]
        pred = [_pose([40.0, 0.0, 3000.0]), _pose([60.0, 0.0, 3000.0])]
        assigned = match_poses([gt], [pred])[0]
        assert sorted(assigned) == [0, 1]
        assert assigned[0] != assigned[1]

    def test_threshold_boundary_is_inclusive(self):
        gt = [_pose([0.0, 0.0, 3000.0])]
        at = [_pose([MATCH_THRESHOLD_MM, 0.0, 3000.0])]
        beyond = [_pose([MATCH_THRESHOLD_MM + 1e-6, 0.0, 3000.0])]
        assert match_poses([gt], [at])[0][0] == 0
        assert match_poses([gt], [beyond])[0][0] == -1

    def test_frame_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            match_poses([[]], [[], []])

    def test_empty_frames(self):
        assigned = match_poses([[]], [[]])[0]
        assert assigned.shape == (0,)


class TestErrorMetrics:
    def test_exact_translation_error(self):
        """A pure translation shows up 1:1 in A-MPJPE and vanishes in R-MPJPE."""
        gt_pose = _pose([0.0, 0.0, 3000.0])
        pred_pose = gt_pose + np.array([30.0, 40.0, 0.0])  # 50 mm shift
        report = evaluate([[gt_pose]], [[pred_pose]])
        assert report.a_mpjpe == pytest.approx(50.0, abs=1e-9)
        assert report.r_mpjpe == pytest.approx(0.0, abs=1e-9)

    def test_pck_boundary_is_strict(self):
        """A joint error of exactly the threshold counts as a miss."""
        gt_pose = _pose([0.0, 0.0, 3000.0])
        exactly = gt_pose + np.array([PCK_THRESHOLD_MM, 0.0, 0.0])
        just_under = gt_pose + np.array([PCK_THRESHOLD_MM - 1e-9, 0.0, 0.0])
        assert evaluate([[gt_pose]], [[exactly]]).a_3dpck == 0.0
        assert evaluate([[gt_pose]], [[just_under]]).a_3dpck == 100.0
        # Root alignment removes the constant shift, so R-PCK is perfect.
        assert evaluate([[gt_pose]], [[exactly]]).r_3dpck == 100.0

    def test_undetected_pose_joints_count_as_misses(self):
        gt_pose = _pose([0.0, 0.0, 3000.0])
        far = _pose([5000.0, 0.0, 3000.0])
        assert list(match_poses([[gt_pose, far]], [[gt_pose.copy()]])[0]) == [0, -1]
        # 17 perfect joints out of 34 total.
        assert evaluate([[gt_pose, far]], [[gt_pose.copy()]]).a_3dpck == pytest.approx(50.0)
        assert evaluate(
            [[gt_pose, far]], [[gt_pose.copy()]], detected_only=True
        ).a_3dpck == pytest.approx(100.0)

    def test_no_matches_yield_nan_errors(self):
        gt_pose = _pose([0.0, 0.0, 3000.0])
        report = evaluate([[gt_pose]], [[]])
        assert math.isnan(report.a_mpjpe)
        assert math.isnan(report.r_mpjpe)
        assert report.a_3dpck == 0.0

    def test_detection_rate(self):
        gt_pose = _pose([0.0, 0.0, 3000.0])
        far = _pose([5000.0, 0.0, 3000.0])
        report = evaluate([[gt_pose, far]], [[gt_pose.copy()]])
        assert report.detection_rate == pytest.approx(50.0)
        assert (report.matched_poses, report.gt_poses) == (1, 2)
        empty = evaluate([[]], [[]])
        assert math.isnan(empty.detection_rate)
        assert (empty.matched_poses, empty.gt_poses) == (0, 0)

    def test_pose_shape_mismatch_raises(self):
        gt_pose = _pose([0.0, 0.0, 3000.0])
        pred_pose = _pose([0.0, 0.0, 3000.0], J=16)
        with pytest.raises(ValueError, match=r"pose shape mismatch: \(17, 3\) vs \(16, 3\)"):
            evaluate([[gt_pose]], [[pred_pose]])

    @pytest.mark.parametrize("root_index", [-1, -18, 17, 40])
    def test_a_root_index_outside_the_pose_names_it_and_j(self, root_index):
        """-1 read the last joint as the root (R-MPJPE 0 on a shifted copy)
        and -18 raised a bare IndexError; each now names the index."""
        gt_pose = _pose([0.0, 0.0, 3000.0])
        message = rf"^root_index must be in \[0, J\) for J = 17 joints, got {root_index}$"
        with pytest.raises(ValueError, match=message):
            match_poses([[gt_pose]], [[gt_pose + 10.0]], root_index=root_index)
        with pytest.raises(ValueError, match=message):
            evaluate([[gt_pose]], [[gt_pose + 10.0]], root_index=root_index)


def _reference_report(gt_frames, pred_frames, root_index, match_t, pck_t, detected_only):
    """Metric suite recomputed with plain loops, for cross-checking."""
    abs_errors, rel_errors = [], []
    a_hits = a_total = r_hits = r_total = 0
    matched = total_gt = 0
    for gt_poses, pred_poses in zip(gt_frames, pred_frames):
        assigned = _reference_match(gt_poses, pred_poses, match_t, root_index)
        total_gt += len(gt_poses)
        for g, p in enumerate(assigned):
            gt_pose = np.asarray(gt_poses[g], dtype=np.float64)
            if p < 0:
                if not detected_only:
                    a_total += gt_pose.shape[0]
                    r_total += gt_pose.shape[0]
                continue
            matched += 1
            pred_pose = np.asarray(pred_poses[p], dtype=np.float64)
            aligned = pred_pose - pred_pose[root_index] + gt_pose[root_index]
            for j in range(gt_pose.shape[0]):
                err_a = float(np.linalg.norm(gt_pose[j] - pred_pose[j]))
                err_r = float(np.linalg.norm(gt_pose[j] - aligned[j]))
                abs_errors.append(err_a)
                rel_errors.append(err_r)
                a_hits += err_a < pck_t
                r_hits += err_r < pck_t
                a_total += 1
                r_total += 1
    return {
        "a_mpjpe": float(np.mean(abs_errors)) if abs_errors else math.nan,
        "r_mpjpe": float(np.mean(rel_errors)) if rel_errors else math.nan,
        "a_3dpck": 100.0 * a_hits / a_total if a_total else math.nan,
        "r_3dpck": 100.0 * r_hits / r_total if r_total else math.nan,
        "detection_rate": 100.0 * matched / total_gt if total_gt else math.nan,
        "matched_poses": matched,
        "gt_poses": total_gt,
    }


class TestThresholds:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -5.0])
    def test_match_poses_rejects_a_threshold_not_finite_and_positive(self, value):
        frames = [[_pose([0.0, 0.0, 3000.0])]]
        with pytest.raises(ValueError, match=rf"^threshold must be finite and > 0, got {value!r}$"):
            match_poses(frames, frames, value)

    @pytest.mark.parametrize("name", ["match_threshold", "pck_threshold"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -5.0])
    def test_evaluate_names_the_bad_threshold(self, name, value):
        """A perfect prediction read 0% A-3DPCK at a NaN PCK threshold and
        0% detection at a negative match threshold; both now raise."""
        frames = [[_pose([0.0, 0.0, 3000.0])]]
        with pytest.raises(ValueError, match=rf"^{name} must be finite and > 0, got {value!r}$"):
            evaluate(frames, frames, **{name: value})

    def test_a_tiny_positive_threshold_is_accepted(self):
        frames = [[_pose([0.0, 0.0, 3000.0])]]
        report = evaluate(frames, frames, match_threshold=1e-300, pck_threshold=1e-300)
        assert report.detection_rate == 100.0 and report.a_mpjpe == 0.0


class TestEvaluate:
    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n_frames = int(rng.integers(1, 4))
            root_index = 14
            gt_frames, pred_frames = [], []
            for _ in range(n_frames):
                gt_frames.append(
                    [_pose(rng.uniform(-400, 400, 3) + [0, 0, 3500], rng=rng)
                     for _ in range(rng.integers(0, 4))]
                )
                pred_frames.append(
                    [_pose(rng.uniform(-400, 400, 3) + [0, 0, 3500], rng=rng)
                     for _ in range(rng.integers(0, 4))]
                )
            detected_only = bool(rng.integers(2))
            report = evaluate(gt_frames, pred_frames, detected_only=detected_only)
            ref = _reference_report(
                gt_frames, pred_frames, root_index,
                MATCH_THRESHOLD_MM, PCK_THRESHOLD_MM, detected_only,
            )
            for key, value in ref.items():
                got = getattr(report, key)
                if isinstance(value, float) and math.isnan(value):
                    assert math.isnan(got), key
                elif isinstance(value, float):
                    assert got == pytest.approx(value, abs=1e-9), key
                else:
                    assert got == value, key

    def test_report_dict_maps_nan_to_none(self):
        report = evaluate([[_pose([0.0, 0.0, 3000.0])]], [[]])
        blob = report.to_dict()
        assert blob["a_mpjpe_mm"] is None
        assert blob["r_mpjpe_mm"] is None
        assert blob["a_3dpck_pct"] == 0.0
        assert blob["detection_rate_pct"] == 0.0
        assert blob["matched_poses"] == 0
        assert blob["gt_poses"] == 1
        assert blob["detected_only"] is False

    def test_format_table_handles_nan(self):
        report = evaluate([[_pose([0.0, 0.0, 3000.0])]], [[]])
        table = report.format_table()
        assert "A-MPJPE" in table and "n/a" in table
        assert "0 / 1" in table

    def test_perfect_predictions(self):
        rng = np.random.default_rng(12)
        gt_frames = [[_pose([0.0, 0.0, 3000.0], rng=rng), _pose([900.0, 0.0, 4000.0], rng=rng)]]
        report = evaluate(gt_frames, [[p.copy() for p in gt_frames[0]]])
        assert report.a_mpjpe == 0.0
        assert report.a_3dpck == 100.0
        assert report.detection_rate == 100.0
        assert report.matched_poses == 2
