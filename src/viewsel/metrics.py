"""Scene-level counting metrics and point-matching localization metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .crowd import DensityMap
from .geometry import GroundGrid


@dataclass(frozen=True)
class CountingReport:
    mae: float
    mse: float  # root mean squared error, per the conventional metric name
    nae: float
    cover_rate: float
    n_frames: int

    def to_dict(self) -> dict:
        return {"mae": self.mae, "mse": self.mse, "nae": self.nae,
                "cover_rate": self.cover_rate, "n_frames": self.n_frames}


@dataclass(frozen=True)
class LocalizationReport:
    moda: float
    modp: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    threshold_m: float

    def to_dict(self) -> dict:
        return {"moda": self.moda, "modp": self.modp,
                "precision": self.precision, "recall": self.recall,
                "f1": self.f1, "tp": self.tp, "fp": self.fp, "fn": self.fn,
                "threshold_m": self.threshold_m}


def counting_metrics(predicted_counts: list[float], gt_counts: list[float],
                     cover_rate: float = float("nan")) -> CountingReport:
    """MAE, RMS error, and NAE of per-frame counts against scene-level GT.

    Zero-GT frames are excluded from NAE (division by zero) but kept in
    MAE/MSE. cover_rate is computed elsewhere and carried through.
    """
    if len(predicted_counts) != len(gt_counts):
        raise ValueError("predicted and gt count lists differ in length")
    if not predicted_counts:
        raise ValueError("need at least one frame")
    p = np.asarray(predicted_counts, dtype=float)
    g = np.asarray(gt_counts, dtype=float)
    err = np.abs(p - g)
    mae = float(err.mean())
    mse = float(np.sqrt(((p - g) ** 2).mean()))
    pos = g > 0
    nae = float((err[pos] / g[pos]).mean()) if pos.any() else 0.0
    return CountingReport(mae=mae, mse=mse, nae=nae, cover_rate=cover_rate,
                          n_frames=len(predicted_counts))


def match_points(predicted: list[tuple[float, float]],
                 gt: list[tuple[float, float]], threshold_m: float
                 ) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """One-to-one point matching: maximize matches, then minimize total
    matched distance; pairs farther than threshold_m never match.

    Returns (matches as (pred_idx, gt_idx, distance), fp indices, fn indices).
    """
    if threshold_m <= 0:
        raise ValueError("threshold_m must be positive")
    n, m = len(predicted), len(gt)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    p = np.asarray(predicted, dtype=float)
    q = np.asarray(gt, dtype=float)
    dist = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    # infeasible cost dominates any sum of feasible distances, so the
    # assignment first maximizes the number of within-threshold matches
    big = threshold_m * (n + m + 1.0)
    cost = np.where(dist <= threshold_m, dist, big)
    rows, cols = linear_sum_assignment(cost)
    matches = [(int(i), int(j), float(dist[i, j]))
               for i, j in zip(rows, cols) if dist[i, j] <= threshold_m]
    matched_p = {i for i, _, _ in matches}
    matched_g = {j for _, j, _ in matches}
    fp = [i for i in range(n) if i not in matched_p]
    fn = [j for j in range(m) if j not in matched_g]
    return matches, fp, fn


def localization_metrics(matches: list[tuple[int, int, float]], fp: int,
                         fn: int, gt_total: int,
                         threshold_m: float) -> LocalizationReport:
    """MODA, MODP (mean normalized closeness of matches), P, R, F1."""
    if gt_total <= 0:
        raise ValueError("MODA undefined for zero ground-truth points")
    tp = len(matches)
    moda = 1.0 - (fp + fn) / gt_total
    modp = (sum(1.0 - d / threshold_m for _, _, d in matches) / tp
            if tp else 0.0)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return LocalizationReport(moda=moda, modp=modp, precision=precision,
                              recall=recall, f1=f1, tp=tp, fp=fp, fn=fn,
                              threshold_m=threshold_m)


def extract_peaks(density: DensityMap, grid: GroundGrid, min_value: float,
                  nms_radius_cells: float) -> list[tuple[float, float]]:
    """Local maxima above min_value with greedy non-maximum suppression.

    Candidates are cells no smaller than all 8 neighbors; they are accepted
    in descending value order (ties by cell index) unless within the NMS
    radius of an already-accepted peak. Returns world coordinates of the
    accepted cell centers.
    """
    if nms_radius_cells < 1:
        raise ValueError("nms_radius_cells must be >= 1")
    v = density.values
    h, w = v.shape
    padded = np.pad(v, 1, constant_values=-np.inf)
    is_max = np.ones((h, w), dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_max &= v >= padded[1 + di:1 + di + h, 1 + dj:1 + dj + w]
    cand = np.argwhere(is_max & (v > min_value))
    order = sorted(range(len(cand)),
                   key=lambda k: (-v[cand[k][0], cand[k][1]],
                                  int(cand[k][0]), int(cand[k][1])))
    accepted: list[tuple[int, int]] = []
    r2 = nms_radius_cells ** 2
    for k in order:
        i, j = int(cand[k][0]), int(cand[k][1])
        if all((i - ai) ** 2 + (j - aj) ** 2 > r2 for ai, aj in accepted):
            accepted.append((i, j))
    ox, oy = grid.origin
    cs = grid.cell_size_m
    return [(ox + (j + 0.5) * cs, oy + (i + 0.5) * cs) for i, j in accepted]
