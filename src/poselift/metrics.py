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

MATCH_THRESHOLD_MM = 250.0
PCK_THRESHOLD_MM = 150.0

Frames = list  # list of frames, each a list of (J, 3) arrays


def _root_of(pose: np.ndarray, root_index: int) -> np.ndarray:
    arr = np.asarray(pose, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3 or root_index >= arr.shape[0]:
        raise ValueError(f"pose must be (J, 3) with J > {root_index}, got {arr.shape}")
    return arr[root_index]


def match_poses(
    gt_frames: Frames,
    pred_frames: Frames,
    threshold: float = MATCH_THRESHOLD_MM,
    root_index: int = 14,
) -> list[np.ndarray]:
    """Greedy one-to-one matching by ascending root distance, per frame.

    Returns one int array per frame, entry g holding the index of the
    prediction matched to ground-truth pose g, or -1 if the pose stayed
    unmatched (no free prediction within ``threshold`` mm).
    """
    if len(gt_frames) != len(pred_frames):
        raise ValueError(f"{len(gt_frames)} gt frames vs {len(pred_frames)} predicted frames")
    matching = []
    for gt_poses, pred_poses in zip(gt_frames, pred_frames):
        assigned = np.full(len(gt_poses), -1, dtype=int)
        candidates = []
        for g, gt_pose in enumerate(gt_poses):
            g_root = _root_of(gt_pose, root_index)
            for p, pred_pose in enumerate(pred_poses):
                dist = float(np.linalg.norm(g_root - _root_of(pred_pose, root_index)))
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


def _matched_errors(
    gt_frames: Frames,
    pred_frames: Frames,
    matching: list[np.ndarray],
    root_index: int,
    root_align: bool,
) -> list[np.ndarray]:
    """Per matched pose, the (J,) per-joint Euclidean errors in mm."""
    errors = []
    for gt_poses, pred_poses, assigned in zip(gt_frames, pred_frames, matching):
        for g, p in enumerate(assigned):
            if p < 0:
                continue
            gt_pose = np.asarray(gt_poses[g], dtype=np.float64)
            pred_pose = np.asarray(pred_poses[p], dtype=np.float64)
            if gt_pose.shape != pred_pose.shape:
                raise ValueError(f"pose shape mismatch: {gt_pose.shape} vs {pred_pose.shape}")
            if root_align:
                pred_pose = pred_pose - pred_pose[root_index] + gt_pose[root_index]
            errors.append(np.sqrt(((gt_pose - pred_pose) ** 2).sum(axis=1)))
    return errors


def a_mpjpe(gt_frames, pred_frames, matching, root_index: int = 14) -> float:
    """Mean per-joint position error over matched poses, absolute coordinates.

    NaN when nothing matched: the error of an undetected pose is
    unbounded, so it is excluded here and accounted for by the
    detection rate and the PCK metrics instead.
    """
    errors = _matched_errors(gt_frames, pred_frames, matching, root_index, root_align=False)
    if not errors:
        return math.nan
    return float(np.concatenate(errors).mean())


def r_mpjpe(gt_frames, pred_frames, matching, root_index: int = 14) -> float:
    """MPJPE after translating each prediction's root onto the ground truth."""
    errors = _matched_errors(gt_frames, pred_frames, matching, root_index, root_align=True)
    if not errors:
        return math.nan
    return float(np.concatenate(errors).mean())


def _pck(
    gt_frames,
    pred_frames,
    matching,
    root_index: int,
    root_align: bool,
    threshold: float,
    detected_only: bool,
) -> float:
    matched = _matched_errors(gt_frames, pred_frames, matching, root_index, root_align)
    errors = np.concatenate([np.empty(0), *matched])
    hits = int((errors < threshold).sum())  # strictly below the threshold
    total = errors.size
    if not detected_only:  # every joint of an undetected pose misses
        total += sum(len(gt_poses[g]) for gt_poses, _, assigned in zip(gt_frames, pred_frames, matching)
                     for g, p in enumerate(assigned) if p < 0)
    if total == 0:
        return math.nan
    return 100.0 * hits / total


def a_3dpck(
    gt_frames,
    pred_frames,
    matching,
    root_index: int = 14,
    threshold: float = PCK_THRESHOLD_MM,
    detected_only: bool = False,
) -> float:
    """Percentage of joints with absolute error strictly below ``threshold``."""
    return _pck(gt_frames, pred_frames, matching, root_index, False, threshold, detected_only)


def r_3dpck(
    gt_frames,
    pred_frames,
    matching,
    root_index: int = 14,
    threshold: float = PCK_THRESHOLD_MM,
    detected_only: bool = False,
) -> float:
    """PCK after root alignment, measuring pose quality without localization."""
    return _pck(gt_frames, pred_frames, matching, root_index, True, threshold, detected_only)


def detection_rate(matching: list[np.ndarray]) -> float:
    """Percentage of ground-truth poses that received a match."""
    total = sum(len(assigned) for assigned in matching)
    if total == 0:
        return math.nan
    matched = sum(int((assigned >= 0).sum()) for assigned in matching)
    return 100.0 * matched / total


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


def evaluate(
    gt_frames: Frames,
    pred_frames: Frames,
    root_index: int = 14,
    match_threshold: float = MATCH_THRESHOLD_MM,
    pck_threshold: float = PCK_THRESHOLD_MM,
    detected_only: bool = False,
) -> MetricReport:
    """Match then compute the full metric suite in one report.

    ``detected_only`` restricts the PCK denominators to matched poses;
    the MPJPE metrics are always over matched poses because an
    undetected pose has no finite error.
    """
    matching = match_poses(gt_frames, pred_frames, match_threshold, root_index)
    return MetricReport(
        a_mpjpe=a_mpjpe(gt_frames, pred_frames, matching, root_index),
        r_mpjpe=r_mpjpe(gt_frames, pred_frames, matching, root_index),
        a_3dpck=a_3dpck(gt_frames, pred_frames, matching, root_index, pck_threshold, detected_only),
        r_3dpck=r_3dpck(gt_frames, pred_frames, matching, root_index, pck_threshold, detected_only),
        detection_rate=detection_rate(matching),
        matched_poses=sum(int((a >= 0).sum()) for a in matching),
        gt_poses=sum(len(a) for a in matching),
        detected_only=detected_only,
    )
