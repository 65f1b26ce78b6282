"""Evaluation metric tests.

The matcher and every metric are checked against a small independent
reimplementation (repeatedly assigning the globally closest unmatched
pair) plus hand-built frames that pin the boundary rules: matching uses
<= on the root distance, PCK uses strict < on the joint error, and
undetected poses count every joint as a miss unless detected_only.
The array path of ``evaluate`` and ``match_poses`` is checked bit for bit
against the earlier per-pose walk, kept here as ``_walk_report``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselift.metrics import MATCH_THRESHOLD_MM, PCK_THRESHOLD_MM, MetricReport, evaluate, match_poses


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

    @pytest.mark.parametrize("gt, pred, message", [
        ([[17, 16]], [[17]], "frame 0, gt pose 1: pose shape mismatch: (17, 3) vs (16, 3)"),
        ([[], [17]], [[16], [17]], "frame 0, pred pose 0: pose shape mismatch: (17, 3) vs (16, 3)"),
        ([[17], [17]], [[17], [17, "nan"]], "frame 1, pred pose 1: pose is not finite"),
        ([["inf"]], [[17]], "frame 0, gt pose 0: pose is not finite"),
        ([[17]], [[(17, 2)]], "frame 0, pred pose 0: pose must be (J, 3), got (17, 2)"),
    ], ids=["ragged-gt", "ragged-pred", "nan-pred", "inf-gt", "not-3d"])
    def test_a_ragged_or_non_finite_pose_names_frame_side_and_index(self, gt, pred, message):
        """On ragged gt, A-3DPCK mixed 16- and 17-joint denominators (51.5%),
        and a NaN prediction was counted as undetected."""
        def pose(kind):
            if kind in ("nan", "inf"):
                return np.where(np.arange(17)[:, None] == 3, float(kind), _pose([0.0, 0.0, 3000.0]))
            return _pose([0.0, 0.0, 3000.0], J=kind) if isinstance(kind, int) else np.zeros(kind)

        gt_frames = [[pose(k) for k in frame] for frame in gt]
        pred_frames = [[pose(k) for k in frame] for frame in pred]
        for run in (lambda: evaluate(gt_frames, pred_frames), lambda: match_poses(gt_frames, pred_frames)):
            with pytest.raises(ValueError) as info:
                run()
            assert str(info.value) == message

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


def _walk_match(gt_frames, pred_frames, threshold, root_index):
    """The earlier matcher: one ``np.linalg.norm`` per (gt, prediction)
    pair, candidates sorted as (distance, gt index, prediction index)."""
    matching = []
    for gt_poses, pred_poses in zip(gt_frames, pred_frames):
        assigned = np.full(len(gt_poses), -1, dtype=int)
        candidates = []
        for g, gt_pose in enumerate(gt_poses):
            for p, pred_pose in enumerate(pred_poses):
                dist = float(np.linalg.norm(gt_pose[root_index] - pred_pose[root_index]))
                if dist <= threshold:
                    candidates.append((dist, g, p))
        candidates.sort()
        used_pred = set()
        for dist, g, p in candidates:
            if assigned[g] == -1 and p not in used_pred:
                assigned[g] = p
                used_pred.add(p)
        matching.append(assigned)
    return matching


def _walk_report(gt_frames, pred_frames, root_index, match_threshold, pck_threshold, detected_only):
    """The earlier ``evaluate``, one matched pose at a time."""
    matching = _walk_match(gt_frames, pred_frames, match_threshold, root_index)
    absolute, aligned, missed_joints = [], [], 0
    for gt_poses, pred_poses, assigned in zip(gt_frames, pred_frames, matching):
        for g, p in enumerate(assigned):
            if p < 0:
                missed_joints += len(gt_poses[g])
                continue
            gt_pose, pred_pose = gt_poses[g], pred_poses[p]
            absolute.append(np.sqrt(((gt_pose - pred_pose) ** 2).sum(axis=1)))
            moved = pred_pose - pred_pose[root_index] + gt_pose[root_index]
            aligned.append(np.sqrt(((gt_pose - moved) ** 2).sum(axis=1)))

    def mpjpe(errors):
        return float(np.concatenate(errors).mean()) if errors else math.nan

    def pck(errors):
        joined = np.concatenate([np.empty(0), *errors])
        total = joined.size if detected_only else joined.size + missed_joints
        return 100.0 * int((joined < pck_threshold).sum()) / total if total else math.nan

    matched = sum(int((a >= 0).sum()) for a in matching)
    gt_poses = sum(len(a) for a in matching)
    return matching, MetricReport(mpjpe(absolute), mpjpe(aligned), pck(absolute), pck(aligned),
                                  100.0 * matched / gt_poses if gt_poses else math.nan, matched, gt_poses,
                                  detected_only)


@st.composite
def scored_frames(draw):
    """Up to four frames of 0-4 gt and 0-4 predicted poses, 17 joints or
    another count with an explicit root.  Roots sit on a 50 mm grid, so
    distances to a gt root tie often; joints scatter around the root."""
    joints = draw(st.sampled_from([17, 1, 5, 9]))
    root_index = draw(st.integers(0, joints - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pose():
        root = 50.0 * rng.integers(-4, 5, size=3) + [0.0, 0.0, 3500.0]
        out = root + rng.normal(scale=rng.choice([20.0, 200.0]), size=(joints, 3))
        out[root_index] = root
        return out

    frames = [([pose() for _ in range(draw(st.integers(0, 4)))], [pose() for _ in range(draw(st.integers(0, 4)))])
              for _ in range(draw(st.integers(0, 4)))]
    return ([gt for gt, _ in frames], [pred for _, pred in frames], root_index,
            draw(st.sampled_from([MATCH_THRESHOLD_MM, 100.0, 1e4])), draw(st.sampled_from([PCK_THRESHOLD_MM, 40.0])),
            draw(st.booleans()))


class TestArrayPath:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scored_frames())
    def test_same_bits_as_the_per_pose_walk(self, case):
        gt_frames, pred_frames, root_index, match_t, pck_t, detected_only = case
        matching, want = _walk_report(gt_frames, pred_frames, root_index, match_t, pck_t, detected_only)
        got = evaluate(gt_frames, pred_frames, root_index, match_t, pck_t, detected_only)
        for field in dataclasses.fields(MetricReport):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b), field.name
        got_matching = match_poses(gt_frames, pred_frames, match_t, root_index)
        assert len(got_matching) == len(matching)
        for a, b in zip(got_matching, matching):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()

    def test_a_tie_in_root_distance_goes_to_the_lower_index(self):
        """Three pairs tie at 100 mm.  Gt pose 0 takes prediction 0, the
        lower index, and leaves gt pose 1, whose other candidate is 300 mm
        away, unmatched; later indices first would match both poses."""
        gt = [_pose([0.0, 0.0, 3000.0]), _pose([0.0, 200.0, 3000.0])]
        pred = [_pose([0.0, 100.0, 3000.0]), _pose([0.0, -100.0, 3000.0])]
        assert match_poses([gt], [pred])[0].tolist() == [0, -1]
        assert _walk_match([gt], [pred], MATCH_THRESHOLD_MM, 14)[0].tolist() == [0, -1]
