"""Slow, loop-based reference implementations used as test oracles.

These deliberately share no code with the library: plain per-cell loops and
direct transcriptions of the score definitions, so agreement is meaningful.
The exceptions are brute_force_best, criterion 3's exhaustive search over
camera subsets, which scores each subset with the library's cover_rate,
and ref_viewsel_pair and ref_modeltrain_pair, one pseudo-label pair
builder per stage as the library had before make_pseudo_pair, which take
their GT from the library's oracle_predict.
"""

import csv
import itertools
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from viewsel import (CrowdFrame, DensityMap, PseudoPair, cover_rate,
                     oracle_predict)


def ref_cell_centers(grid):
    """World coordinates (X, Y) of every cell center, each shaped (h, w):
    cell (i, j) is centered at origin + ((j + 0.5) * cell_size,
    (i + 0.5) * cell_size)."""
    ox, oy = grid.origin
    h, w = grid.shape
    return np.meshgrid(ox + (np.arange(w) + 0.5) * grid.cell_size_m,
                       oy + (np.arange(h) + 0.5) * grid.cell_size_m)


def ref_inverse_distance(cams, masks, grid):
    h, w = grid.shape
    X, Y = ref_cell_centers(grid)
    D = np.zeros((h, w))
    for cam, mask in zip(cams, masks):
        cx, cy = cam.ground_position
        for i in range(h):
            for j in range(w):
                if mask[i, j]:
                    d = math.hypot(X[i, j] - cx, Y[i, j] - cy)
                    D[i, j] += 1.0 / max(d, grid.cell_size_m / 2.0)
    return D


def ref_density_weighted(cams, masks, grid, density):
    h, w = grid.shape
    X, Y = ref_cell_centers(grid)
    D = np.zeros((h, w))
    for cam, mask in zip(cams, masks):
        cx, cy = cam.ground_position
        for i in range(h):
            for j in range(w):
                if mask[i, j]:
                    d = math.hypot(X[i, j] - cx, Y[i, j] - cy)
                    D[i, j] += density[i, j] / max(d, grid.cell_size_m / 2.0)
    return D


def ref_full_grid_field(cams, footprints, grid, weight=None):
    """Vectorized full-grid field: each camera's floored distance to every
    cell center, added as fp.mask * w / d in group order."""
    X, Y = ref_cell_centers(grid)
    field = np.zeros(grid.shape)
    for cam, fp in zip(cams, footprints):
        cx, cy = cam.ground_position
        d = np.maximum(np.hypot(X - cx, Y - cy), grid.cell_size_m / 2.0)
        field += (fp.mask if weight is None else fp.mask * weight) / d
    return field


def ref_diversity(cams, lam, eps):
    """S_vd as a plain loop over the i < j pairs, each camera's ground axis
    from its yaw and pitch. The dot product, ground distance and
    exponential are numpy's (`@`, np.linalg.norm, np.exp), the arithmetic
    of the library, so a score's S_vd can be compared bit for bit."""
    acc = 0.0
    for a in range(len(cams)):
        for b in range(a + 1, len(cams)):
            ca, cb = cams[a], cams[b]
            fa = _ground_axis(ca)
            fb = _ground_axis(cb)
            if fa is None or fb is None:
                continue
            dist = np.linalg.norm(np.subtract(ca.ground_position,
                                              cb.ground_position))
            acc += float(np.array(fa) @ np.array(fb)) / (float(dist) + eps)
    return float(np.exp(-lam * acc))


def _ground_axis(cam):
    gx = math.cos(cam.pitch) * math.cos(cam.yaw)
    gy = math.cos(cam.pitch) * math.sin(cam.yaw)
    n = math.hypot(gx, gy)
    if n < 1e-12:
        return None
    return (gx / n, gy / n)


def ref_totals(region, D, s_vd, grid):
    """(s_sc, s_ad, s_vd, total) of a scored region and a distance field."""
    n = int(region.sum())
    s_sc = n / grid.n_cells
    s_ad = float(D[region].sum()) / n if n else 0.0
    total = s_sc * s_ad * s_vd if n else 0.0
    return s_sc, s_ad, s_vd, total


def ref_score_geometric(cams, scene, lam, eps):
    masks = [scene.footprint(c.id).mask for c in cams]
    region = np.zeros(scene.grid.shape, dtype=bool)
    for m in masks:
        region |= m
    D = ref_inverse_distance(cams, masks, scene.grid)
    return ref_totals(region, D, ref_diversity(cams, lam, eps), scene.grid)


def ref_binarize(values, sigma_mode):
    thr = values.mean() if sigma_mode == "mean" else float(sigma_mode)
    return values > thr


def ref_score_mask(cams, scene, prediction, sigma_mode, lam, eps):
    masks = [scene.footprint(c.id).mask for c in cams]
    region = ref_binarize(prediction, sigma_mode)
    D = ref_inverse_distance(cams, masks, scene.grid)
    return ref_totals(region, D, ref_diversity(cams, lam, eps), scene.grid)


def ref_score_density(cams, scene, prediction, sigma_mode, lam, eps):
    masks = [scene.footprint(c.id).mask for c in cams]
    region = ref_binarize(prediction, sigma_mode)
    D = ref_density_weighted(cams, masks, scene.grid, prediction)
    return ref_totals(region, D, ref_diversity(cams, lam, eps), scene.grid)


def ref_match_points(predicted, gt, threshold):
    """Exhaustive best assignment: maximize matches, then minimize total
    distance. Exponential in the smaller side; only for tiny instances."""
    n, m = len(predicted), len(gt)
    dist = [[math.hypot(p[0] - g[0], p[1] - g[1]) for g in gt]
            for p in predicted]
    for k in range(min(n, m), -1, -1):
        candidates = []
        for ps in itertools.combinations(range(n), k):
            for gs in itertools.permutations(range(m), k):
                ds = [dist[i][j] for i, j in zip(ps, gs)]
                if all(d <= threshold for d in ds):
                    candidates.append(sum(ds))
        if candidates:
            return k, min(candidates)
    return 0, 0.0


def ref_match_points_linalg(predicted, gt, threshold_m):
    """match_points with its distances from np.linalg.norm over the
    coordinate axis and its pairs filtered one at a time; returns
    (matches, fp, fn)."""
    n, m = len(predicted), len(gt)
    if n == 0 or m == 0:
        return [], list(range(n)), list(range(m))
    p = np.asarray(predicted, dtype=float)
    q = np.asarray(gt, dtype=float)
    dist = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
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


def ref_optimal_matchings(predicted, gt, threshold_m):
    """Every optimal matching of match_points, each as its (pred, gt)
    pairs by prediction index, by exhaustive search over the distances of
    ref_match_points_linalg: the most within-threshold pairs, then the
    least math.fsum of their distances. Exponential; tiny instances only."""
    n, m = len(predicted), len(gt)
    p = np.asarray(predicted, dtype=float).reshape(n, 2)
    q = np.asarray(gt, dtype=float).reshape(m, 2)
    dist = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
    for k in range(min(n, m), -1, -1):
        found = {}
        for ps in itertools.combinations(range(n), k):
            for gs in itertools.permutations(range(m), k):
                if all(dist[i, j] <= threshold_m for i, j in zip(ps, gs)):
                    total = math.fsum(dist[i, j] for i, j in zip(ps, gs))
                    found.setdefault(total, []).append(list(zip(ps, gs)))
        if found:
            return found[min(found)]


def ref_extract_peaks(density, grid, min_value, nms_radius_cells):
    """Greedy NMS as a loop over candidates sorted by (-value, i, j), each
    compared with every accepted peak."""
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
    accepted = []
    r2 = nms_radius_cells ** 2
    for k in order:
        i, j = int(cand[k][0]), int(cand[k][1])
        if all((i - ai) ** 2 + (j - aj) ** 2 > r2 for ai, aj in accepted):
            accepted.append((i, j))
    ox, oy = grid.origin
    cs = grid.cell_size_m
    return [(ox + (j + 0.5) * cs, oy + (i + 0.5) * cs) for i, j in accepted]


def ref_trace_from_csv(path):
    """A trace CSV read one csv.DictReader dict per row."""
    by_frame = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows = by_frame.setdefault(int(row["frame_id"]), [])
            if row["person_idx"] != "":
                rows.append((float(row["x_m"]), float(row["y_m"])))
    return [CrowdFrame(frame_id=fid, positions=by_frame[fid])
            for fid in sorted(by_frame)]


def ref_trace_to_csv(frames, path):
    """A trace CSV written one csv.writer row at a time."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("frame_id", "person_idx", "x_m", "y_m"))
        for frame in frames:
            if not len(frame.positions):
                writer.writerow([frame.frame_id, "", "", ""])
            for idx, (x, y) in enumerate(frame.positions.tolist()):
                writer.writerow([frame.frame_id, idx, repr(x), repr(y)])


def ref_frame_axes(cam):
    """(forward, right, up) of a pose, up written out as the cross product
    right x forward component by component."""
    cy, sy = math.cos(cam.yaw), math.sin(cam.yaw)
    cp, sp = math.cos(cam.pitch), math.sin(cam.pitch)
    f = (cp * cy, cp * sy, sp)
    r = (sy, -cy, 0.0)
    u = (r[1] * f[2] - r[2] * f[1],
         r[2] * f[0] - r[0] * f[2],
         r[0] * f[1] - r[1] * f[0])
    return np.array(f), np.array(r), np.array(u)


def ref_project_footprint(camera, grid, regrouped=()):
    """The footprint mask as a full-grid vectorized test: every term over
    all (h, w) cell centers, the range test included. Each of the frustum
    terms vf, vr and vu sums its three products left to right, or, if
    named in regrouped, as a[0] * vx + (a[1] * vy + a[2] * vz)."""
    X, Y = ref_cell_centers(grid)
    cx, cy, cz = camera.position_3d
    forward, right, up = camera.frame_axes()

    vx, vy, vz = X - cx, Y - cy, -cz

    def term(name, a):
        if name in regrouped:
            return a[0] * vx + (a[1] * vy + a[2] * vz)
        return a[0] * vx + a[1] * vy + a[2] * vz
    vf, vr, vu = term("vf", forward), term("vr", right), term("vu", up)

    tan_h = math.tan(camera.horizontal_fov_rad / 2.0)
    tan_v = math.tan(camera.vertical_fov_rad / 2.0)
    in_front = vf > 0
    return (in_front
            & (np.abs(vr) <= tan_h * vf)
            & (np.abs(vu) <= tan_v * vf)
            & (np.hypot(X - cx, Y - cy) <= camera.max_range_m))


def ref_world_to_cell(grid, x, y):
    ox, oy = grid.origin
    j = int(math.floor((x - ox) / grid.cell_size_m))
    i = int(math.floor((y - oy) / grid.cell_size_m))
    i = min(max(i, 0), grid.height_cells - 1)
    j = min(max(j, 0), grid.width_cells - 1)
    return i, j


def ref_visible_persons(points, visibility, grid):
    """Per-person loop over (x, y) tuples: keep the people whose clamped
    cell is visible."""
    out = []
    for x, y in points:
        i, j = ref_world_to_cell(grid, x, y)
        if visibility[i, j]:
            out.append((x, y))
    return out


def ref_rasterize_density(points, grid, kernel_sigma_cells, mask=None):
    """Per-person loop over (x, y) tuples: add each truncated Gaussian,
    normalized over its in-bounds window, to the raster in person order;
    returns the array."""
    h, w = grid.shape
    values = np.zeros((h, w))
    ox, oy = grid.origin
    cs = grid.cell_size_m
    radius = int(math.ceil(4.0 * kernel_sigma_cells))
    inv_two_sigma2 = 1.0 / (2.0 * kernel_sigma_cells ** 2)
    for x, y in points:
        px = (x - ox) / cs - 0.5  # in cell-center units
        py = (y - oy) / cs - 0.5
        j0, i0 = int(round(px)), int(round(py))
        i_lo, i_hi = max(i0 - radius, 0), min(i0 + radius, h - 1)
        j_lo, j_hi = max(j0 - radius, 0), min(j0 + radius, w - 1)
        if i_lo > i_hi or j_lo > j_hi:
            continue
        ii = np.arange(i_lo, i_hi + 1)
        jj = np.arange(j_lo, j_hi + 1)
        d2 = ((ii - py) ** 2)[:, None] + ((jj - px) ** 2)[None, :]
        kern = np.exp(-d2 * inv_two_sigma2)
        kern[d2 > (4.0 * kernel_sigma_cells) ** 2] = 0.0
        s = kern.sum()
        if s > 0:
            values[i_lo:i_hi + 1, j_lo:j_hi + 1] += kern / s
    if mask is not None:
        values[~mask] = 0.0
    return values


def ref_noisy_predict(frame, visibility, scene, config, selected_ids=None):
    """noisy_predict over a list of (x, y) tuples: the per-person miss
    probability, the jittered people rebuilt one at a time, then the loop
    references for visibility and rasterization; returns the array. The rng
    draws are the library's, in its order."""
    points = frame.positions.tolist()
    sigma = config.kernel_sigma_cells
    resid = 1.0 - config.calibration.quality
    if (config.miss_rate * resid == 0.0
            and config.position_jitter_m * resid == 0.0
            and config.count_noise_rel * resid == 0.0):
        seen = ref_visible_persons(points, visibility, scene.grid)
        return ref_rasterize_density(seen, scene.grid, sigma, mask=visibility)
    rng = np.random.default_rng([config.seed, frame.frame_id])
    n = len(points)
    miss_p = np.full(n, config.miss_rate * resid)
    if selected_ids and n:
        local = ref_rasterize_density(points, scene.grid, sigma)
        half_cell = scene.grid.cell_size_m / 2.0
        for k, (x, y) in enumerate(points):
            i, j = ref_world_to_cell(scene.grid, x, y)
            crowding = local[i, j] / (local[i, j] + config.crowding_half)
            strength = 0.0
            for cid in selected_ids:
                cx, cy = scene.camera(cid).ground_position
                d = max(np.hypot(x - cx, y - cy), half_cell)
                strength += scene.footprint(cid).mask[i, j] / d
            miss_p[k] *= crowding / (1.0 + config.distance_falloff_m
                                     * strength)
    keep = rng.random(n) >= miss_p
    jitter = rng.normal(0.0, 1.0, size=(n, 2)) * config.position_jitter_m \
        * resid
    scale = max(1.0 + config.count_noise_rel * resid * rng.uniform(-1.0, 1.0),
                0.0)
    noisy = [(x + jitter[k, 0], y + jitter[k, 1])
             for k, (x, y) in enumerate(points) if keep[k]]
    seen = ref_visible_persons(noisy, visibility, scene.grid)
    return ref_rasterize_density(seen, scene.grid, sigma,
                                 mask=visibility) * scale


def ref_select_first_view(scene, frames, predict):
    """The largest_predicted_count first view as one prediction per camera
    and frame: predict(frame, visibility) -> raster array under each
    camera's footprint; the largest summed total wins, ties by camera id."""
    def total_count(cid):
        return sum(float(predict(frame, scene.footprint(cid).mask).sum())
                   for frame in frames)
    return min(scene.camera_ids, key=lambda cid: (-total_count(cid), cid))


def ref_select_frames(scene, trace, predict, f):
    """Frame selection as one prediction per frame under the widest
    camera's footprint (largest area, ties by id): the frame of the largest
    footprint total first (ties by frame id), then repeatedly the frame
    whose largest cosine similarity to a chosen one is smallest."""
    widest = min(scene.camera_ids,
                 key=lambda cid: (-int(scene.footprint(cid).mask.sum()), cid))
    fov = scene.footprint(widest).mask
    feats = {frame.frame_id: predict(frame, fov)[fov] for frame in trace}

    def cosine(u, v):
        nu, nv = math.sqrt(float(u @ u)), math.sqrt(float(v @ v))
        return 1.0 if nu == 0.0 or nv == 0.0 else float(u @ v) / (nu * nv)
    chosen = [min(sorted(feats), key=lambda fid: -feats[fid].sum())]
    while len(chosen) < f:
        rest = [fid for fid in sorted(feats) if fid not in chosen]
        chosen.append(min(rest, key=lambda fid: max(
            cosine(feats[fid], feats[c]) for c in chosen)))
    return chosen


def ref_viewsel_pair(state, frame, rng, kernel_sigma_cells=1.0):
    """Selected group plus one random unselected view of state.scene; GT
    is the group's oracle prediction, whose mask is the group's FOV union."""
    unselected = sorted(set(state.scene.camera_ids) - set(state.selected))
    if not unselected:
        raise ValueError("no unselected cameras available")
    extra = unselected[int(rng.integers(len(unselected)))]
    gt = oracle_predict(frame, state.combined_mask, state.scene,
                        kernel_sigma_cells)
    return PseudoPair(input_view_ids=tuple(state.selected) + (extra,),
                      gt_density=gt, loss_mask=state.combined_mask,
                      stage="viewsel")


def ref_modeltrain_pair(state, frame, rng, kernel_sigma_cells=1.0):
    """One random selected view plus K-1 random unselected views of
    state.scene; GT is the K-selected-view oracle prediction, zeroed outside
    the intersection of the selected and the pseudo inputs' FOV unions."""
    k, scene = len(state.selected), state.scene
    n_pseudo = k - 1
    unselected = sorted(set(scene.camera_ids) - set(state.selected))
    if len(unselected) < n_pseudo:
        raise ValueError(f"need {n_pseudo} unselected cameras, have "
                         f"{len(unselected)}")
    kept = state.selected[int(rng.integers(k))]
    picks = [unselected[i]
             for i in rng.choice(len(unselected), size=n_pseudo,
                                 replace=False)]
    inputs = (kept,) + tuple(picks)
    pseudo_union = scene.visibility_of(list(inputs))
    loss_mask = state.combined_mask & pseudo_union
    gt = oracle_predict(frame, state.combined_mask, scene, kernel_sigma_cells)
    gt = DensityMap(values=np.where(loss_mask, gt.values, 0.0))
    return PseudoPair(input_view_ids=inputs, gt_density=gt,
                      loss_mask=loss_mask, stage="modeltrain")


def ref_union_overlap(scene, group, candidates):
    """Each candidate's count of footprint cells inside the bool union of
    the group's footprints, one candidate at a time."""
    union = np.zeros(scene.grid.shape, dtype=bool)
    for cid in group:
        union = union | scene.footprint(cid).mask
    return [int(np.count_nonzero(union & scene.footprint(cid).mask))
            for cid in candidates]


def brute_force_best(scene, trace, k, budget=50_000):
    """Exhaustive maximization of the cover rate over all k-subsets (ties
    by lexicographic id)."""
    n = len(scene.cameras)
    n_subsets = 1
    for i in range(k):
        n_subsets = n_subsets * (n - i) // (i + 1)
    if n_subsets > budget:
        raise ValueError(f"{n_subsets} subsets exceed budget {budget}")
    best_set, best_val = None, -np.inf
    for subset in itertools.combinations(sorted(scene.camera_ids), k):
        val = cover_rate(trace, scene.visibility_of(list(subset)), scene.grid)
        if val > best_val:
            best_set, best_val = subset, val
    return best_set, float(best_val)
