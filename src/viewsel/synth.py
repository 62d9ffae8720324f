"""Synthetic scene generation: candidate camera rosters on a ground grid."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .geometry import CameraPose, GroundGrid, Scene
from .serialize import (require_int, require_pair, require_real,
                        require_seed)

# the ranges a camera's height (m) and field of view (rad) are drawn from
HEIGHT_RANGE = (4.0, 9.0)
HFOV_RANGE = (math.radians(55), math.radians(95))
VFOV_RANGE = (math.radians(40), math.radians(60))


def generate_scene(n_cameras: int, grid: GroundGrid, seed: int,
                   range_frac: tuple[float, float] = (0.35, 0.65),
                   twin_fraction: float = 0.0) -> Scene:
    """Place candidate cameras around the scene perimeter, aimed at random
    interior targets, with randomized height, FOV, and range cap. Ranges are
    drawn from range_frac = (lo, hi), 0 < lo <= hi, as fractions of the
    grid diagonal, deliberately short of full coverage so that selection
    has something to trade off.

    twin_fraction > 0 replaces that fraction of the roster (the last cameras)
    with near-duplicates of earlier ones: same aim and optics, position nudged
    by ~1 m. Twins stress diversity-aware selection, since a twin pair adds
    almost no new coverage."""
    if require_int(n_cameras, "n_cameras") < 1:
        raise ValueError("need at least one camera")
    if not (0.0 <= require_real(twin_fraction, "twin_fraction") < 1.0):
        raise ValueError("twin_fraction must be in [0, 1)")
    lo, hi = (require_real(v, "range_frac")
              for v in require_pair(range_frac, "range_frac"))
    if not 0.0 < lo <= hi:
        raise ValueError(f"range_frac must have 0 < lo <= hi, not "
                         f"{range_frac!r}")
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    diag = math.hypot(ex, ey)
    # no drawn range exceeds diag * hi
    if diag * hi == math.inf:
        raise ValueError(f"range_frac {range_frac!r} gives ranges too large "
                         f"for a float on a {diag} m grid diagonal")
    rng = np.random.default_rng(require_seed(seed))
    cameras = []
    width = len(str(max(n_cameras - 1, 1)))
    for idx in range(n_cameras):
        # perimeter position: walk the boundary by a randomized arc length
        t = (idx + rng.uniform(0.0, 0.8)) / n_cameras * 2.0 * (ex + ey)
        if t < ex:
            x, y = ox + t, oy
        elif t < ex + ey:
            x, y = ox + ex, oy + (t - ex)
        elif t < 2 * ex + ey:
            x, y = ox + ex - (t - ex - ey), oy + ey
        else:
            x, y = ox, oy + ey - (t - 2 * ex - ey)
        target = rng.uniform([ox + 0.15 * ex, oy + 0.15 * ey],
                             [ox + 0.85 * ex, oy + 0.85 * ey])
        z = rng.uniform(*HEIGHT_RANGE)
        yaw = math.atan2(target[1] - y, target[0] - x)
        ground_dist = math.hypot(target[0] - x, target[1] - y)
        pitch = -math.atan2(z, max(ground_dist, 1e-6)) \
            + rng.uniform(-0.05, 0.05)
        pitch = min(max(pitch, -1.45), -0.05)
        cameras.append(CameraPose(
            id=f"cam{idx:0{width}d}", position_3d=(x, y, z), yaw=yaw,
            pitch=pitch, horizontal_fov_rad=rng.uniform(*HFOV_RANGE),
            vertical_fov_rad=rng.uniform(*VFOV_RANGE),
            max_range_m=diag * rng.uniform(lo, hi)))
    n_twins = int(twin_fraction * n_cameras)
    for k in range(n_twins):
        idx = n_cameras - n_twins + k
        src = cameras[int(rng.integers(idx))]
        dx, dy = rng.uniform(-1.0, 1.0, size=2)
        x, y, z = src.position_3d
        cameras[idx] = replace(src, id=cameras[idx].id,
                               position_3d=(x + dx, y + dy, z))
    return Scene(grid=grid, cameras=cameras)
