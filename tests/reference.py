"""Slow, loop-based reference implementations used as test oracles.

These deliberately share no code with the library: plain per-cell loops and
direct transcriptions of the score definitions, so agreement is meaningful.
"""

import math

import numpy as np


def ref_inverse_distance(cams, masks, grid):
    h, w = grid.shape
    X, Y = grid.cell_centers()
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
    X, Y = grid.cell_centers()
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
    X, Y = grid.cell_centers()
    field = np.zeros(grid.shape)
    for cam, fp in zip(cams, footprints):
        cx, cy = cam.ground_position
        d = np.maximum(np.hypot(X - cx, Y - cy), grid.cell_size_m / 2.0)
        field += (fp.mask if weight is None else fp.mask * weight) / d
    return field


def ref_diversity(cams, lam, eps):
    acc = 0.0
    for a in range(len(cams)):
        for b in range(a + 1, len(cams)):
            ca, cb = cams[a], cams[b]
            fa = _ground_axis(ca)
            fb = _ground_axis(cb)
            if fa is None or fb is None:
                continue
            dist = math.hypot(ca.ground_position[0] - cb.ground_position[0],
                              ca.ground_position[1] - cb.ground_position[1])
            acc += (fa[0] * fb[0] + fa[1] * fb[1]) / (dist + eps)
    return math.exp(-lam * acc)


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
    import itertools
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


def ref_world_to_cell(grid, x, y):
    ox, oy = grid.origin
    j = int(math.floor((x - ox) / grid.cell_size_m))
    i = int(math.floor((y - oy) / grid.cell_size_m))
    i = min(max(i, 0), grid.height_cells - 1)
    j = min(max(j, 0), grid.width_cells - 1)
    return i, j


def ref_visible_persons(frame, visibility, grid):
    """Per-person loop: keep the people whose clamped cell is visible."""
    out = []
    for person in frame.persons:
        i, j = ref_world_to_cell(grid, *person.position)
        if visibility[i, j]:
            out.append(person)
    return out


def ref_rasterize_density(frame, grid, kernel_sigma_cells, mask=None):
    """Per-person loop: add each truncated Gaussian, normalized over its
    in-bounds window, to the raster in person order; returns the array."""
    h, w = grid.shape
    values = np.zeros((h, w))
    ox, oy = grid.origin
    cs = grid.cell_size_m
    radius = int(math.ceil(4.0 * kernel_sigma_cells))
    inv_two_sigma2 = 1.0 / (2.0 * kernel_sigma_cells ** 2)
    for person in frame.persons:
        px = (person.position[0] - ox) / cs - 0.5  # in cell-center units
        py = (person.position[1] - oy) / cs - 0.5
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
