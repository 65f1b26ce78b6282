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


def _first_refusal(gt_frames: Frames, pred_frames: Frames) -> str:
    """Why the first pose that cannot be stacked fails: its frame, side and
    index, then the reason (not (J, 3), another shape than the first
    pose's, or not finite)."""
    shape = None
    for side, frames in (("gt", gt_frames), ("pred", pred_frames)):
        for f, poses in enumerate(frames):
            for i, pose in enumerate(poses):
                arr = np.asarray(pose, dtype=np.float64)
                where = f"frame {f}, {side} pose {i}"
                if arr.ndim != 2 or arr.shape[1] != 3:
                    return f"{where}: pose must be (J, 3), got {arr.shape}"
                shape = shape or arr.shape
                if arr.shape != shape:
                    return f"{where}: pose shape mismatch: {shape} vs {arr.shape}"
                if not np.isfinite(arr).all():
                    return f"{where}: pose is not finite"
    return ""


def _stacked(gt_frames: Frames, pred_frames: Frames, root_index: int):
    """Every pose as one float64 array (N, J, 3), the ground truth's frame
    by frame and then the predictions'; their (N, 3) roots; and each
    side's pose count per frame.  Every pose must be finite and have the
    first pose's (J, 3) shape, else a ValueError names its frame, side and
    index; so must a root_index outside [0, J)."""
    if len(gt_frames) != len(pred_frames):
        raise ValueError(f"{len(gt_frames)} gt frames vs {len(pred_frames)} predicted frames")
    flat = [pose for frames in (gt_frames, pred_frames) for poses in frames for pose in poses]
    try:
        poses = np.array(flat, dtype=np.float64) if flat else np.empty((0, 0, 3))
    except (ValueError, TypeError):  # ragged, or a pose that is no array of numbers
        poses = None
    if poses is None or poses.ndim != 3 or poses.shape[2] != 3 or not np.isfinite(poses).all():
        raise ValueError(_first_refusal(gt_frames, pred_frames))
    if flat and not 0 <= root_index < poses.shape[1]:
        raise ValueError(f"root_index must be in [0, J) for J = {poses.shape[1]} joints, got {root_index}")
    roots = poses[:, root_index] if flat else np.empty((0, 3))
    return poses, roots, *(np.array([len(f) for f in frames], dtype=int) for frames in (gt_frames, pred_frames))


def _match(roots: np.ndarray, gt_counts: np.ndarray, pred_counts: np.ndarray, threshold: float) -> np.ndarray:
    """Greedy matching on :func:`_stacked`'s roots and counts: for every gt
    pose, frame by frame, the index into ``roots`` of its prediction, or -1.
    The root distances of every same-frame (gt, prediction) pair come from
    one ``np.vecdot``; the pairs within ``threshold`` are then taken in
    order of (distance, gt index, prediction index), each pose once."""
    n_gt = int(gt_counts.sum())
    pairs = gt_counts * pred_counts
    frame = np.repeat(np.arange(len(pairs)), pairs)
    k = np.arange(pairs.sum()) - (np.cumsum(pairs) - pairs)[frame]  # pair index in its frame, gt-major
    g = (np.cumsum(gt_counts) - gt_counts)[frame] + k // pred_counts[frame]
    p = n_gt + (np.cumsum(pred_counts) - pred_counts)[frame] + k % pred_counts[frame]
    diff = roots[g] - roots[p]
    dist = np.sqrt(np.vecdot(diff, diff))
    near = dist <= threshold
    g, p, dist = g[near], p[near], dist[near]
    order = np.lexsort((p, g, dist))
    assigned = np.full(n_gt, -1, dtype=int)
    used_pred: set[int] = set()
    for gi, pi in zip(g[order].tolist(), p[order].tolist()):
        if assigned[gi] == -1 and pi not in used_pred:
            assigned[gi] = pi
            used_pred.add(pi)
    return assigned


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
    _, roots, gt_counts, pred_counts = _stacked(gt_frames, pred_frames, root_index)
    assigned = _match(roots, gt_counts, pred_counts, threshold)
    first_pred = np.repeat(gt_counts.sum() + np.cumsum(pred_counts) - pred_counts, gt_counts)
    local = np.where(assigned >= 0, assigned - first_pred, -1)
    return [local[end - count : end] for count, end in zip(gt_counts, np.cumsum(gt_counts))]


def _mpjpe(errors: np.ndarray) -> float:
    return float(errors.mean()) if errors.size else math.nan


def _pck(errors: np.ndarray, missed_joints: int, threshold: float, detected_only: bool) -> float:
    hits = int((errors < threshold).sum())  # strictly below the threshold
    total = errors.size if detected_only else errors.size + missed_joints  # an undetected pose misses every joint
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
    poses, roots, gt_counts, pred_counts = _stacked(gt_frames, pred_frames, root_index)
    assigned = _match(roots, gt_counts, pred_counts, match_threshold)
    gt_idx = np.flatnonzero(assigned >= 0)  # matched gt poses, frame by frame
    pred_idx = assigned[gt_idx]
    # Per matched pose the (J,) per-joint Euclidean errors in mm, absolute
    # and after translating the predicted root onto the ground truth's.
    gt, pred = poses[gt_idx], poses[pred_idx]
    absolute = np.sqrt(((gt - pred) ** 2).sum(axis=2)).ravel()
    moved = pred - roots[pred_idx, None] + roots[gt_idx, None]
    aligned = np.sqrt(((gt - moved) ** 2).sum(axis=2)).ravel()
    matched, gt_poses = len(gt_idx), len(assigned)
    missed_joints = (gt_poses - matched) * poses.shape[1]
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
