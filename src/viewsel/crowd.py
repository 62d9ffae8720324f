"""Synthetic crowds, ground-plane density rasters, and coverage accounting."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import GroundGrid, Scene, floored_distance
from .serialize import (require_finite, require_int, require_pair,
                        require_real, require_seed)


@dataclass(frozen=True)
class Person:
    position: tuple[float, float]


@dataclass(frozen=True, eq=False)
class CrowdFrame:
    """All person ground positions at one synchronized timestamp: a
    read-only (n, 2) float array of (x, y) meters, one row per person.

    It also holds the constants that depend only on those positions (cells,
    local_density, observation, footprint_density): each computed on first
    use, read-only, keyed by the values that determine it, and kept as long
    as the frame."""

    frame_id: int
    positions: np.ndarray

    def __post_init__(self):
        # a copy, so later writes to the caller's array do not reach it
        pos = np.array(self.positions, dtype=float)
        if pos.shape == (0,):
            pos = pos.reshape(0, 2)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions shape {pos.shape} is not (n, 2)")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "_constants", {})

    def __eq__(self, other):
        if not isinstance(other, CrowdFrame):
            return NotImplemented
        return (self.frame_id == other.frame_id
                and np.array_equal(self.positions, other.positions))

    @property
    def persons(self) -> list[Person]:
        """The positions as Person records, for readers outside viewsel."""
        return [Person(position=(x, y)) for x, y in self.positions.tolist()]

    def _held(self, key, compute):
        """The constant under key, computed and made read-only on first use."""
        held = self._constants.get(key)
        if held is None:
            held = self._constants[key] = compute()
            for arr in held if isinstance(held, tuple) else (held,):
                arr.setflags(write=False)
        return held

    def cells(self, grid: GroundGrid) -> tuple[np.ndarray, np.ndarray]:
        """Each person's containing cell (rows, cols) on grid, boundary
        clamped in-bounds; non-finite positions raise ValueError."""
        return self._held(("cells", grid),
                          lambda: grid.world_to_cell(*self.positions.T))

    def seen(self, visibility: np.ndarray, grid: GroundGrid) -> np.ndarray:
        """Whether visibility covers each person's cell, in person order."""
        if visibility.shape != grid.shape:
            raise ValueError("visibility shape does not match grid")
        return visibility[self.cells(grid)]

    def local_density(self, grid: GroundGrid,
                      kernel_sigma_cells: float) -> np.ndarray:
        """The frame's density (rasterize_density) at each
        person's own cell."""
        return self._held(
            ("local_density", grid, kernel_sigma_cells),
            lambda: rasterize_density(self, grid, kernel_sigma_cells)
            .values[self.cells(grid)])

    def observation(self, scene: Scene, camera_id: str) -> np.ndarray:
        """Each person's inverse-distance signal from one of the scene's
        cameras: covered / d, covered being whether the camera's footprint
        holds the person's cell and d the floored ground distance to the
        camera. Keyed by the grid and the camera's pose."""
        camera = scene.camera(camera_id)

        def row():
            covered = scene.footprint(camera_id).mask[self.cells(scene.grid)]
            return covered / floored_distance(*self.positions.T,
                                              camera.ground_position,
                                              scene.grid)
        return self._held(("observation", scene.grid, camera), row)

    def footprint_density(self, scene: Scene, camera_id: str,
                          kernel_sigma_cells: float) -> np.ndarray:
        """The density of the people that one of the scene's cameras sees,
        read on that camera's footprint cells in row-major order: the
        oracle prediction (predictor.oracle_predict) under the footprint,
        at the footprint. Keyed by the grid, the camera's pose and sigma."""
        fov = scene.footprint(camera_id).mask

        def feature():
            # the oracle's mask zeroes only cells that are not read here
            table = kernel_table(self.positions[self.seen(fov, scene.grid)],
                                 scene.grid, kernel_sigma_cells)
            return DensityMap(values=accumulate_density(
                table, scene.grid)).values[fov]
        return self._held(("footprint_density", scene.grid,
                           scene.camera(camera_id), kernel_sigma_cells),
                          feature)


@dataclass(frozen=True)
class DensityMap:
    """Finite, nonnegative crowd density raster aligned to a GroundGrid,
    a 2-D numpy array."""

    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.ndim == 2):
            raise ValueError(f"density values must be a 2-D numpy array, "
                             f"got {type(v).__name__}"
                             f"{getattr(v, 'shape', '')}")
        v.setflags(write=False)
        if not (np.isfinite(v).all() and (v >= 0).all()):
            raise ValueError("density values must be finite and nonnegative")

    @property
    def total(self) -> float:
        return float(self.values.sum())


def generate_crowd_trace(grid: GroundGrid, n_frames: int,
                         count_range: tuple[int, int], clustering: float,
                         seed: int) -> list[CrowdFrame]:
    """Synthesize a deterministic trace of crowd frames.

    clustering=0 places people uniformly over the grid extent; as clustering
    approaches 1, an increasing fraction of each frame concentrates around a
    few Gaussian cluster centers. Positions are clamped into the grid extent.
    """
    if require_int(n_frames, "n_frames") < 1:
        raise ValueError("n_frames must be >= 1")
    lo, hi = (require_int(v, "count_range")
              for v in require_pair(count_range, "count_range"))
    if lo < 0 or hi < lo:
        raise ValueError(f"bad count_range {count_range}")
    if not (0.0 <= require_real(clustering, "clustering") <= 1.0):
        raise ValueError("clustering must be in [0, 1]")
    rng = np.random.default_rng(require_seed(seed))
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    # keep clamped points strictly inside the extent
    pad = 1e-9 * max(ex, ey, 1.0)
    frames = []
    for fid in range(n_frames):
        n = int(rng.integers(lo, hi + 1))
        n_clustered = int(round(clustering * n))
        pts = []
        if n - n_clustered > 0:
            u = rng.uniform([ox, oy], [ox + ex, oy + ey],
                            size=(n - n_clustered, 2))
            pts.append(u)
        if n_clustered > 0:
            n_centers = int(rng.integers(2, 5))
            centers = rng.uniform([ox + 0.1 * ex, oy + 0.1 * ey],
                                  [ox + 0.9 * ex, oy + 0.9 * ey],
                                  size=(n_centers, 2))
            # heterogeneous cluster sizes so crowd mass is unevenly spread
            weights = rng.dirichlet(np.full(n_centers, 0.7))
            assign = rng.choice(n_centers, size=n_clustered, p=weights)
            spread = 0.06 * min(ex, ey)
            c = centers[assign] + rng.normal(0.0, spread, size=(n_clustered, 2))
            pts.append(c)
        xy = np.concatenate(pts) if pts else np.zeros((0, 2))
        xy[:, 0] = np.clip(xy[:, 0], ox + pad, ox + ex - pad)
        xy[:, 1] = np.clip(xy[:, 1], oy + pad, oy + ey - pad)
        frames.append(CrowdFrame(frame_id=fid, positions=xy))
    return frames


def kernel_table(positions: np.ndarray, grid: GroundGrid,
                 kernel_sigma_cells: float) -> tuple[np.ndarray, np.ndarray]:
    """Each person's Gaussian kernel as one row of (2r+1)**2 flat cells and
    weights, r = ceil(4 sigma), in the order of positions, a finite (n, 2)
    array of (x, y) meters: (cells, weights).

    A kernel is truncated at 4 sigma and renormalized to unit mass over its
    in-bounds window. Window cells off the grid, and every cell of a person
    whose window misses the grid, point at the spare bin h*w with weight
    0.0, so accumulate_density of any subset of rows is the raster of that
    subset of people.
    """
    if require_real(kernel_sigma_cells, "kernel_sigma_cells") <= 0:
        raise ValueError(f"kernel_sigma_cells must be finite and positive, "
                         f"not {kernel_sigma_cells}")
    h, w = grid.shape
    pos = require_finite(positions, "person positions")
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ValueError(f"positions shape {pos.shape} is not (n, 2)")
    radius = int(math.ceil(4.0 * kernel_sigma_cells))
    inv_two_sigma2 = 1.0 / (2.0 * kernel_sigma_cells ** 2)
    # (x, y) in cell-center units; a person whose window misses the grid is
    # moved to just off it, which keeps the window off the grid and the
    # indices small, while no other person moves
    pc = np.clip((pos - grid.origin) / grid.cell_size_m - 0.5,
                 -radius - 1.5, (w + radius + 0.5, h + radius + 0.5))
    px, py = pc[:, 0], pc[:, 1]
    # one (2r+1) x (2r+1) window per person around the nearest cell center,
    # cells outside the grid included
    off = np.arange(-radius, radius + 1)
    ii = np.rint(py).astype(np.intp)[:, None] + off  # (n, 2r+1)
    jj = np.rint(px).astype(np.intp)[:, None] + off
    n, size = len(pos), off.size ** 2
    d2 = (((ii - py[:, None]) ** 2)[:, :, None]
          + ((jj - px[:, None]) ** 2)[:, None, :]).reshape(n, size)
    within = d2 <= (4.0 * kernel_sigma_cells) ** 2
    # exp(-d2 * inv_two_sigma2) in place (flipping the factor's sign instead
    # of d2's rounds the same), truncated by multiplying by 1 or 0: the
    # weights are finite and nonnegative, so both are exact
    d2 *= -inv_two_sigma2
    kern = np.exp(d2, out=d2)
    kern *= within
    s = kern.sum(axis=1)
    cells = ((ii * w)[:, :, None] + jj[:, None, :]).reshape(n, size)
    # a window that leaves the grid is normalized over its in-bounds block,
    # summed as one contiguous row of the block's size k (a per-person sum
    # adds in an order that depends only on k), and its cells off the grid
    # become the spare bin with weight 0.0
    row_in = (ii >= 0) & (ii < h)
    col_in = (jj >= 0) & (jj < w)
    block = row_in.sum(axis=1) * col_in.sum(axis=1)
    edge = np.flatnonzero(block < size)
    inside = (row_in.take(edge, axis=0)[:, :, None]
              & col_in.take(edge, axis=0)[:, None, :]).reshape(len(edge), size)
    window = kern.take(edge, axis=0)
    edge_block = block.take(edge)
    for k in set(edge_block.tolist()):
        same = np.flatnonzero(edge_block == k)
        blocks = window.take(same, axis=0)[inside.take(same, axis=0)]
        s[edge.take(same)] = blocks.reshape(len(same), k).sum(axis=1)
    window *= inside
    kern[edge] = window
    cells[edge] = np.where(inside, cells.take(edge, axis=0), h * w)
    s[s == 0] = 1.0  # such kernels weigh 0.0 in bounds; avoids dividing by 0
    kern /= s[:, None]
    return cells, kern


def accumulate_density(table: tuple[np.ndarray, np.ndarray], grid: GroundGrid,
                       rows: np.ndarray | None = None,
                       mask: np.ndarray | None = None) -> np.ndarray:
    """The (h, w) raster of the kernel_table rows selected by rows (a
    boolean or index array over the people; None: all), with the cells
    outside mask zeroed afterwards without renormalizing, so people
    straddling the mask's edge keep partial mass."""
    if mask is not None and mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    cells, weights = table
    if rows is not None:
        cells, weights = cells[rows], weights[rows]
    h, w = grid.shape
    # bincount adds in person order, as += per person would; given no
    # people it returns integer zeros, hence the cast
    values = np.bincount(cells.ravel(), weights=weights.ravel(),
                         minlength=h * w + 1)[:h * w]
    values = values.astype(float, copy=False).reshape(h, w)
    if mask is not None:
        values[~mask] = 0.0
    return values


def rasterize_density(frame: CrowdFrame, grid: GroundGrid,
                      kernel_sigma_cells: float) -> DensityMap:
    """Rasterize a frame as a sum of per-person Gaussian kernels.

    Each person contributes an isotropic Gaussian truncated at 4 sigma and
    renormalized to unit mass over its in-bounds window, so the map sums to
    the person count.
    """
    table = kernel_table(frame.positions, grid, kernel_sigma_cells)
    return DensityMap(values=accumulate_density(table, grid))


def cover_rate(frames: list[CrowdFrame], visibility: np.ndarray,
               grid: GroundGrid) -> float:
    """Fraction of all people across frames lying inside the visible region."""
    covered = sum(int(np.count_nonzero(frame.seen(visibility, grid)))
                  for frame in frames)
    total = sum(len(frame.positions) for frame in frames)
    if total == 0:
        raise ValueError("no persons in any frame")
    return covered / total


def check_trace(trace: list[CrowdFrame], grid: GroundGrid) -> None:
    """Refuse a repeated or negative frame id, or a person non-finite or
    outside grid's closed extent, naming the first in trace order. Entry
    points call this; primitives clamp, as noisy draws leave the grid."""
    lo, hi = grid.origin, np.add(grid.origin, grid.extent_m)
    seen = set()
    for frame in trace:
        fid = require_int(frame.frame_id, f"frame {frame.frame_id}: frame id")
        if fid in seen:
            raise ValueError(f"repeated frame id {fid}")
        if fid < 0:
            raise ValueError(f"frame {fid}: frame id must be >= 0")
        seen.add(fid)
        # a nan or infinite coordinate fails these comparisons too
        inside = (lo <= frame.positions) & (frame.positions <= hi)
        if not inside.all():
            x, y = frame.positions[inside.all(1).argmin()].tolist()
            what = ("outside grid extent" if np.isfinite([x, y]).all()
                    else "has a non-finite position")
            raise ValueError(f"frame {fid}: person at ({x}, {y}) {what}")


# --- trace I/O -------------------------------------------------------------

_COLUMNS = ("frame_id", "person_idx", "x_m", "y_m")


def trace_to_csv(frames: list[CrowdFrame], path) -> None:
    """Write frames as a trace CSV, a row per person, in the bytes that
    csv.writer writes: \r\n line endings, and an empty frame as one row
    with empty person fields. The text is built before the file is opened,
    so frames that cannot be written leave the file as it was."""
    lines = [",".join(_COLUMNS)]
    for frame in frames:
        fid = frame.frame_id
        if not len(frame.positions):
            lines.append(f"{fid},,,")
        # repr of Python floats: numpy 2 scalars print as np.float64(...)
        lines += [f"{fid},{idx},{x!r},{y!r}"
                  for idx, (x, y) in enumerate(frame.positions.tolist())]
    lines.append("")
    text = "\r\n".join(lines)
    with open(path, "w", newline="") as f:
        f.write(text)


# a trace row as the bulk reader parses it; person_idx is parsed only so
# that an empty one, an empty frame's row, sends the file to the loop
_ROW = np.dtype([("frame_id", np.int64), ("person_idx", float),
                 ("x_m", float), ("y_m", float)])


# the ASCII bytes that send a file to the csv loop: a quote, as loadtxt
# splits a quoted field that csv reads whole, and the separators \x1c-\x1f,
# which loadtxt strips around a number and int() and float() refuse.
# Non-ASCII text goes to the loop too: loadtxt has crashed the process on it
_LOOP_ONLY = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def trace_from_csv(path) -> list[CrowdFrame]:
    """The frames of a trace CSV in frame-id order. Columns are found by
    header name; blank lines are skipped; a row with an empty person_idx
    keeps its frame without adding a person. A row that cannot be read
    raises ValueError naming its line.

    A file of ASCII text with no quote and no \\x1c-\\x1f separator is
    parsed in bulk by one np.loadtxt call. Any other file, and one that
    loadtxt refuses or warns of (an empty frame's row, a short row, a value
    that only Python reads, no rows at all), is read by the csv loop, which
    names a faulty line. Both read every file that both accept to the same
    frames."""
    with open(path, "rb") as f:
        raw = f.read()
    # `in` finds one byte by memchr, many times faster than a regex class
    if not raw.isascii() or any(byte in raw for byte in _LOOP_ONLY):
        return _csv_trace(path)
    with open(path, newline="") as f:
        cols = _trace_columns(next(csv.reader(f), None))
        if cols is None:
            return []
        try:
            with warnings.catch_warnings():
                # loadtxt warns of a body with no rows
                warnings.simplefilter("error")
                rows = np.loadtxt(f, dtype=_ROW, delimiter=",",
                                  comments=None, usecols=cols, ndmin=1)
        except (ValueError, Warning):
            return _csv_trace(path)
    order = np.argsort(rows["frame_id"], kind="stable")
    fids, starts = np.unique(rows["frame_id"][order], return_index=True)
    xy = np.column_stack((rows["x_m"][order], rows["y_m"][order]))
    return [CrowdFrame(frame_id=fid, positions=part)
            for fid, part in zip(fids.tolist(), np.split(xy, starts[1:]))]


def _trace_columns(header: list[str] | None) -> tuple[int, ...] | None:
    """The indices of the frame_id, person_idx, x_m and y_m columns of a
    trace header (None: a file with no header)."""
    if header is None:
        return None
    # the last column of a repeated name wins, as in csv.DictReader
    col = {name: k for k, name in enumerate(header)}
    missing = [c for c in _COLUMNS if c not in col]
    if missing:
        raise ValueError(f"trace header lacks columns {missing}")
    return tuple(col[c] for c in _COLUMNS)


def _csv_trace(path) -> list[CrowdFrame]:
    """trace_from_csv by csv.reader, one row at a time."""
    by_frame: dict[int, list[tuple[float, float]]] = {}
    with open(path, newline="") as f:
        rows = csv.reader(f)
        cols = _trace_columns(next(rows, None))
        if cols is None:
            return []
        fi, pi, xi, yi = cols
        width = max(cols) + 1
        try:
            for row in rows:
                if not row:
                    continue
                if len(row) < width:
                    raise ValueError(f"{len(row)} fields, expected at least "
                                     f"{width}")
                pts = by_frame.setdefault(int(row[fi]), [])
                if row[pi] != "":
                    pts.append((float(row[xi]), float(row[yi])))
        except ValueError as err:
            raise ValueError(f"trace line {rows.line_num}: {err}") from err
    return [CrowdFrame(frame_id=fid, positions=by_frame[fid])
            for fid in sorted(by_frame)]
