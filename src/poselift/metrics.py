"""Multi-person 3D pose metrics.

Ground truth and predictions are lists of frames; a frame is a list of
(J, 3) poses in camera-frame millimeters.  Predictions are matched to
ground truth per frame by root distance, then errors are accumulated
either over every ground-truth pose (unmatched ones count as misses) or
over detected poses only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .skeleton import default_skeleton

MATCH_THRESHOLD_MM = 250.0
PCK_THRESHOLD_MM = 150.0

Frames = list  # list of frames, each a list of (J, 3) arrays


def check_threshold(name: str, value: float) -> None:
    """Raise a ValueError naming ``name`` unless ``value`` is finite and > 0."""
    if not 0.0 < value < math.inf:  # NaN compares false
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _checked(gt_frames: Frames, pred_frames: Frames, root_index: int) -> tuple[list, list]:
    """Both sides' poses as float64 arrays.  Every pose must be finite and
    have the first ground-truth pose's (J, 3) shape, else a ValueError
    names its frame, side and index; so must a root_index outside [0, J)."""
    if len(gt_frames) != len(pred_frames):
        raise ValueError(f"{len(gt_frames)} gt frames vs {len(pred_frames)} predicted frames")
    shape, sides = None, ([], [])
    for side, frames, out in (("gt", gt_frames, sides[0]), ("pred", pred_frames, sides[1])):
        for f, poses in enumerate(frames):
            out.append([np.asarray(pose, dtype=np.float64) for pose in poses])
            for i, arr in enumerate(out[-1]):
                where = f"frame {f}, {side} pose {i}"
                if arr.ndim != 2 or arr.shape[1] != 3:
                    raise ValueError(f"{where}: pose must be (J, 3), got {arr.shape}")
                shape = shape or arr.shape
                if arr.shape != shape:
                    raise ValueError(f"{where}: pose shape mismatch: {shape} vs {arr.shape}")
                if not np.isfinite(arr).all():
                    raise ValueError(f"{where}: pose is not finite")
    if shape and not 0 <= root_index < shape[0]:
        raise ValueError(f"root_index must be in [0, J) for J = {shape[0]} joints, got {root_index}")
    return sides


def match_poses(gt_frames: Frames, pred_frames: Frames, threshold: float = MATCH_THRESHOLD_MM,
                root_index: int = default_skeleton().root) -> list[np.ndarray]:
    """Greedy one-to-one matching by ascending root distance, per frame.

    Returns one int array per frame, entry g holding the index of the
    prediction matched to ground-truth pose g, or -1 if the pose stayed
    unmatched (no free prediction within ``threshold`` mm).  The
    threshold must be finite and > 0, and the poses as :func:`evaluate`
    says.
    """
    check_threshold("threshold", threshold)
    return _match(*_checked(gt_frames, pred_frames, root_index), threshold, root_index)


def _match(gt_frames: list, pred_frames: list, threshold: float, root_index: int) -> list[np.ndarray]:
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
        used_pred: set[int] = set()
        for dist, g, p in candidates:
            if assigned[g] == -1 and p not in used_pred:
                assigned[g] = p
                used_pred.add(p)
        matching.append(assigned)
    return matching


def _errors(gt_frames: list, pred_frames: list, matching: list[np.ndarray],
            root_index: int) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """One walk over the matching: per matched pose the (J,) per-joint
    Euclidean errors in mm, absolute and after translating the predicted
    root onto the ground truth's, plus the joint count of unmatched poses."""
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
    return absolute, aligned, missed_joints


def _mpjpe(errors: list[np.ndarray]) -> float:
    return float(np.concatenate(errors).mean()) if errors else math.nan


def _pck(errors: list[np.ndarray], missed_joints: int, threshold: float, detected_only: bool) -> float:
    joined = np.concatenate([np.empty(0), *errors])
    hits = int((joined < threshold).sum())  # strictly below the threshold
    total = joined.size if detected_only else joined.size + missed_joints  # an undetected pose misses every joint
    if total == 0:
        return math.nan
    return 100.0 * hits / total


@dataclass
class MetricReport:
    a_mpjpe: float
    r_mpjpe: float
    a_3dpck: float
    r_3dpck: float
    detection_rate: float
    matched_poses: int
    gt_poses: int
    detected_only: bool

    def to_dict(self) -> dict:
        def j(x: float):
            return None if isinstance(x, float) and math.isnan(x) else x

        return {
            "a_mpjpe_mm": j(self.a_mpjpe),
            "r_mpjpe_mm": j(self.r_mpjpe),
            "a_3dpck_pct": j(self.a_3dpck),
            "r_3dpck_pct": j(self.r_3dpck),
            "detection_rate_pct": j(self.detection_rate),
            "matched_poses": self.matched_poses,
            "gt_poses": self.gt_poses,
            "detected_only": self.detected_only,
        }

    def format_table(self) -> str:
        def fmt(x: float, unit: str) -> str:
            return "n/a" if math.isnan(x) else f"{x:.1f}{unit}"

        scope = "detected poses only" if self.detected_only else "every gt pose"
        rows = [
            ("A-MPJPE", fmt(self.a_mpjpe, " mm")),
            ("R-MPJPE", fmt(self.r_mpjpe, " mm")),
            ("A-3DPCK", fmt(self.a_3dpck, " %")),
            ("R-3DPCK", fmt(self.r_3dpck, " %")),
            ("Detection rate", fmt(self.detection_rate, " %")),
            ("Matched / gt", f"{self.matched_poses} / {self.gt_poses}"),
        ]
        width = max(len(name) for name, _ in rows)
        lines = [f"PCK scope: {scope}"]
        lines += [f"{name:<{width}}  {value}" for name, value in rows]
        return "\n".join(lines)


def evaluate(gt_frames: Frames, pred_frames: Frames, root_index: int = default_skeleton().root,
             match_threshold: float = MATCH_THRESHOLD_MM, pck_threshold: float = PCK_THRESHOLD_MM,
             detected_only: bool = False) -> MetricReport:
    """Match then compute the full metric suite in one report.

    A-MPJPE and R-MPJPE (after translating each predicted root onto the
    ground truth's) average over matched poses, because an undetected
    pose has no finite error; they are NaN when nothing matched.  The
    3DPCKs count joints strictly below ``pck_threshold``, and an
    undetected pose misses every joint unless ``detected_only`` restricts
    the denominators to matched poses.  The detection rate is the
    percentage of ground-truth poses matched, NaN when there are none.
    Both thresholds must be finite and > 0.  Every pose must be finite
    and of the first ground-truth pose's (J, 3) shape, else a ValueError
    names its frame, side (gt or pred) and index in the frame.
    """
    check_threshold("match_threshold", match_threshold)
    check_threshold("pck_threshold", pck_threshold)
    gt_frames, pred_frames = _checked(gt_frames, pred_frames, root_index)
    matching = _match(gt_frames, pred_frames, match_threshold, root_index)
    absolute, aligned, missed_joints = _errors(gt_frames, pred_frames, matching, root_index)
    matched = sum(int((a >= 0).sum()) for a in matching)
    gt_poses = sum(len(a) for a in matching)
    return MetricReport(
        a_mpjpe=_mpjpe(absolute),
        r_mpjpe=_mpjpe(aligned),
        a_3dpck=_pck(absolute, missed_joints, pck_threshold, detected_only),
        r_3dpck=_pck(aligned, missed_joints, pck_threshold, detected_only),
        detection_rate=100.0 * matched / gt_poses if gt_poses else math.nan,
        matched_poses=matched,
        gt_poses=gt_poses,
        detected_only=detected_only,
    )
