"""Scene-level counting metrics and point-matching localization metrics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crowd import DensityMap
from .geometry import GroundGrid
from .serialize import require_real


@dataclass(frozen=True)
class CountingReport:
    mae: float
    mse: float  # root mean squared error, per the conventional metric name
    nae: float
    cover_rate: float
    n_frames: int


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


def counting_metrics(predicted_counts: list[float], gt_counts: list[float],
                     cover_rate: float = float("nan")) -> CountingReport:
    """MAE, RMS error, and NAE of per-frame counts against scene-level GT.

    Zero-GT frames are excluded from NAE (division by zero) but kept in
    MAE/MSE. cover_rate is computed elsewhere and carried through. A count
    that is not finite, or is negative, raises ValueError naming its list
    and frame index.
    """
    if len(predicted_counts) != len(gt_counts):
        raise ValueError("predicted and gt count lists differ in length")
    if not predicted_counts:
        raise ValueError("need at least one frame")
    p = np.asarray(predicted_counts, dtype=float)
    g = np.asarray(gt_counts, dtype=float)
    for name, counts in (("predicted_counts", p), ("gt_counts", g)):
        bad = np.flatnonzero(~(np.isfinite(counts) & (counts >= 0)))
        if bad.size:
            raise ValueError(f"{name}[{bad[0]}] is {float(counts[bad[0]])!r}"
                             f": a count must be finite and non-negative")
    err = np.abs(p - g)
    mae = float(err.mean())
    mse = float(np.sqrt(((p - g) ** 2).mean()))
    pos = g > 0
    nae = float((err[pos] / g[pos]).mean()) if pos.any() else 0.0
    return CountingReport(mae=mae, mse=mse, nae=nae, cover_rate=cover_rate,
                          n_frames=len(predicted_counts))


def require_match_threshold(threshold_m: float) -> None:
    """Raise ValueError unless threshold_m is a finite positive distance."""
    if require_real(threshold_m, "threshold_m") <= 0:
        raise ValueError(f"threshold_m must be finite and positive, got "
                         f"{threshold_m!r}")


def _points(points, name: str) -> np.ndarray:
    """points as a (k, 2) float array; no point at all may come in any
    shape (e.g. []). Any other shape, ragged rows included, raises
    ValueError."""
    try:
        a = np.asarray(points, dtype=float)
    except ValueError as e:
        raise ValueError(f"{name} must be (k, 2) points: {e}") from None
    if a.shape[:1] != (0,) and (a.ndim != 2 or a.shape[1] != 2):
        raise ValueError(f"{name} must be (k, 2) points, got shape "
                         f"{a.shape}")
    return a


def match_points(predicted, gt, threshold_m: float
                 ) -> tuple[list[tuple[int, int, float]], list[int], list[int]]:
    """One-to-one point matching of predicted and gt, each an (n, 2) array
    or a list of (x, y): maximize matches, then minimize total matched
    distance; pairs farther than threshold_m never match, and neither do
    points with a NaN or infinite coordinate. Any other shape than (k, 2)
    raises ValueError.

    All within-threshold pairs are solved together, exactly, by _assign
    on the dense matrix of the points that they touch. Between equal-cost
    optima the choice is the solver's own.

    Returns (matches as (pred_idx, gt_idx, distance) by pred_idx, fp
    indices, fn indices).
    """
    require_match_threshold(threshold_m)
    p = _points(predicted, "predicted")
    q = _points(gt, "gt")
    n, m = len(p), len(q)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    # candidate pairs: each prediction with the gt points whose x lies
    # within reach of its own, a range of the x-sorted gt points. A pair
    # outside has |dx| > reach, and reach = 2 * threshold_m (at least
    # 1e-150, so that its square does not underflow) puts it beyond
    # threshold_m
    reach = max(2.0 * threshold_m, 1e-150)
    by_x = q[:, 0].argsort(kind="stable")
    qx = q[by_x, 0]
    lo = qx.searchsorted(p[:, 0] - reach)
    counts = qx.searchsorted(p[:, 0] + reach, side="right") - lo
    rows = np.arange(n).repeat(counts)
    cols = by_x[np.arange(len(rows))
                + (lo - counts.cumsum() + counts).repeat(counts)]
    # the Euclidean norm as np.linalg.norm computes it over a length-2 axis:
    # sqrt of the two squares added in (x, y) order; np.hypot rounds
    # differently
    d = p.take(rows, axis=0) - q.take(cols, axis=0)
    d *= d
    dist = np.sqrt(d[:, 0] + d[:, 1])
    ok = dist <= threshold_m
    rows, cols, dist = rows[ok], cols[ok], dist[ok]
    if not len(rows):
        return [], list(range(n)), list(range(m))
    r_ids, r = np.unique(rows, return_inverse=True)
    c_ids, c = np.unique(cols, return_inverse=True)
    # an infeasible pair costs more than any sum of feasible distances, so
    # the assignment first maximizes the number of within-threshold matches
    cost = np.full((len(r_ids), len(c_ids)),
                   threshold_m * (len(r_ids) + len(c_ids) + 1.0))
    cost[r, c] = dist
    if len(r_ids) <= len(c_ids):
        r, c = np.arange(len(r_ids)), _assign(cost)
    else:
        r, c = _assign(cost.T), np.arange(len(c_ids))
    # the solver assigns every row, at an infeasible cost where it must;
    # such a row stays unmatched
    dist = cost[r, c]
    ok = dist <= threshold_m
    rows, cols, dist = r_ids[r[ok]], c_ids[c[ok]], dist[ok]
    by_p = rows.argsort()
    rows, cols, dist = rows[by_p], cols[by_p], dist[by_p]
    matches = list(zip(rows.tolist(), cols.tolist(), dist.tolist()))
    unmatched_p = np.ones(n, dtype=bool)
    unmatched_p[rows] = False
    unmatched_g = np.ones(m, dtype=bool)
    unmatched_g[cols] = False
    return (matches, unmatched_p.nonzero()[0].tolist(),
            unmatched_g.nonzero()[0].tolist())


def _assign(cost: np.ndarray) -> np.ndarray:
    """Column of each row in a minimum-cost assignment of every row of a
    finite cost matrix with no more rows than columns: the shortest
    augmenting path method (Crouse, "On implementing 2D rectangular
    assignment algorithms", IEEE TAES 2016), one augmentation per row
    that its cheapest column does not already settle. More rows than
    columns raise ValueError, since some row would find no free column."""
    nr, nc = cost.shape
    if nr > nc:
        raise ValueError(f"cannot assign {nr} rows to {nc} columns")
    # start from row reduction: each row takes its cheapest column unless
    # an earlier row took it, at zero reduced cost
    u = cost.min(axis=1)
    v = np.zeros(nc)
    col4row = np.full(nr, -1)
    row4col = np.full(nc, -1)
    taken, first = np.unique(cost.argmin(axis=1), return_index=True)
    col4row[first] = taken
    row4col[taken] = first
    for start in (col4row < 0).nonzero()[0].tolist():
        # Dijkstra over the columns on the reduced costs, from row start
        # to the nearest unassigned column
        short = np.full(nc, np.inf)
        path = np.full(nc, -1)
        scanned = np.zeros(nc, dtype=bool)
        i, base = start, 0.0
        while True:
            reduced = base + cost[i] - u[i] - v
            better = ~scanned & (reduced < short)
            short[better] = reduced[better]
            path[better] = i
            j = int(np.where(scanned, np.inf, short).argmin())
            base = short[j]
            scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        # dual update keeps every reduced cost non-negative and the
        # assigned pairs' zero
        u[start] += base
        inner = scanned & (row4col >= 0)
        u[row4col[inner]] += base - short[inner]
        v[scanned] -= base - short[scanned]
        # augment along the path back to row start
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def localization_metrics(matches: list[tuple[int, int, float]], fp: int,
                         fn: int, gt_total: int,
                         threshold_m: float) -> LocalizationReport:
    """MODA, MODP (mean normalized closeness of matches), P, R, F1.

    The counts must be ones a matching produces: a negative fp or fn, or
    a gt_total other than len(matches) + fn, raises ValueError."""
    require_match_threshold(threshold_m)
    if gt_total <= 0:
        raise ValueError("MODA undefined for zero ground-truth points")
    tp = len(matches)
    if fp < 0 or fn < 0:
        raise ValueError(f"fp and fn must be non-negative, got fp={fp!r}, "
                         f"fn={fn!r}")
    if tp + fn != gt_total:
        raise ValueError(f"{tp} matches and fn={fn!r} do not add up to "
                         f"gt_total={gt_total!r}")
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
                  nms_radius_cells: float) -> np.ndarray:
    """Local maxima above min_value with greedy non-maximum suppression.

    Candidates are cells no smaller than all 8 neighbors; they are accepted
    in descending value order (ties by cell index) unless within the NMS
    radius of an already-accepted peak, i.e. di**2 + dj**2 <=
    nms_radius_cells**2 in cells. Returns the world (x, y) of the accepted
    cell centers, in acceptance order, as an (n, 2) float array. A
    density off the grid's shape, a non-finite min_value, or a radius that
    is not finite and at least one cell, raises ValueError.
    """
    if density.values.shape != grid.shape:
        raise ValueError("density does not match grid")
    require_real(min_value, "peak min_value")
    if require_real(nms_radius_cells, "nms_radius_cells") < 1:
        raise ValueError(f"nms_radius_cells must be finite and >= 1, got "
                         f"{nms_radius_cells!r}")
    v = density.values
    h, w = v.shape
    padded = np.full((h + 2, w + 2), -np.inf)
    padded[1:-1, 1:-1] = v
    is_max = v > min_value
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_max &= v >= padded[1 + di:1 + di + h, 1 + dj:1 + dj + w]
    # flat cell indices in descending value order, ties by cell index
    flat = is_max.ravel().nonzero()[0]
    flat = flat[(-v.ravel()[flat]).argsort(kind="stable")]
    ci, cj = np.divmod(flat, w)
    # each candidate's rank on a grid padded by r, wp cells wide (no
    # candidate: len(flat)), read at every offset of the (2r+1)-wide disk
    # di**2 + dj**2 <= nms_radius_cells**2; a better-ranked candidate in a
    # candidate's disk is its rival. Greedy NMS accepts a candidate iff no
    # accepted peak lies in its disk, and the disk is symmetric, so a
    # candidate without rivals is accepted and one with rivals is accepted
    # iff none of them was
    r = int(nms_radius_cells)
    off = np.arange(-r, r + 1)
    di, dj = np.nonzero(off[:, None] ** 2 + off[None, :] ** 2
                        <= nms_radius_cells ** 2)
    wp = w + 2 * r
    at = ci * wp + cj
    rank = np.full((h + 2 * r) * wp, len(flat))
    rank[at + (r * wp + r)] = np.arange(len(flat))
    near = rank.take(at[:, None] + (di * wp + dj))
    rivals = near < np.arange(len(flat))[:, None]
    accepted = ~rivals.any(axis=1)
    for k in np.flatnonzero(~accepted).tolist():
        accepted[k] = not accepted[near[k][rivals[k]]].any()
    xs, ys = grid.cell_axes()
    return np.stack((xs[cj[accepted]], ys[ci[accepted]]), axis=1)
