"""Ground-plane scene geometry: grid, calibrated cameras, FOV footprints.

All reasoning happens on the ground plane z=0. A camera's footprint is the
set of grid cells whose centers fall inside the projected view frustum and
within the camera's range cap. Masks are boolean arrays of shape (h, w),
row-major, with cell (i, j) centered at
origin + ((j + 0.5) * cell_size, (i + 0.5) * cell_size).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .serialize import (require_finite, require_int, require_kind,
                        require_object, require_real)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each flagged read-only: a constant cached on a frozen
    object must not change under a caller's write."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class GroundGrid:
    """Metric ground-plane raster: h x w cells of cell_size_m meters. The
    cell size and origin are held as floats (an int is read as one)."""

    height_cells: int
    width_cells: int
    cell_size_m: float = 0.5
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        require_int(self.height_cells, "grid h")
        require_int(self.width_cells, "grid w")
        object.__setattr__(self, "cell_size_m", require_real(
            self.cell_size_m, "grid cell_size_m"))
        object.__setattr__(self, "origin", tuple(
            require_real(v, "grid origin") for v in self.origin))
        if self.height_cells < 1 or self.width_cells < 1:
            raise ValueError("grid must have at least one cell per axis")
        if len(self.origin) != 2:
            raise ValueError("grid origin must have 2 entries")
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")
        # every cell center lies between the origin and the far corner
        for cells, o in zip((self.width_cells, self.height_cells),
                            self.origin):
            extent = require_real(cells, "grid extent") * self.cell_size_m
            require_real(extent, "grid extent")
            require_real(o + extent, "grid far corner")
        # a flat cell index, and kernel_table's spare bin h*w, must fit in
        # an index
        if self.height_cells * self.width_cells + 1 > np.iinfo(np.intp).max:
            raise ValueError(f"grid {self.height_cells}x{self.width_cells} "
                             f"has more cells than an index can hold")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height_cells, self.width_cells)

    @property
    def n_cells(self) -> int:
        return self.height_cells * self.width_cells

    @property
    def extent_m(self) -> tuple[float, float]:
        """(width, height) of the covered world rectangle in meters."""
        return (self.width_cells * self.cell_size_m,
                self.height_cells * self.cell_size_m)

    def cell_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The x of each column's and the y of each row's cell centers:
        cell (i, j) is centered at (xs[j], ys[i]). Computed once per grid
        and read-only."""
        return self._cell_axes

    @cached_property
    def _cell_axes(self) -> tuple[np.ndarray, np.ndarray]:
        ox, oy = self.origin
        xs = ox + (np.arange(self.width_cells) + 0.5) * self.cell_size_m
        ys = oy + (np.arange(self.height_cells) + 0.5) * self.cell_size_m
        return _read_only(xs, ys)

    def world_to_cell(self, x, y):
        """Cell index (i, j) containing each world point, clamped in-bounds.

        x and y are scalars or equally shaped arrays; i and j take their
        shape. Non-finite coordinates raise ValueError.
        """
        x = require_finite(x, "x")
        y = require_finite(y, "y")
        ox, oy = self.origin
        j = np.clip(np.floor((x - ox) / self.cell_size_m),
                    0, self.width_cells - 1).astype(np.intp)
        i = np.clip(np.floor((y - oy) / self.cell_size_m),
                    0, self.height_cells - 1).astype(np.intp)
        return i, j

    def to_config(self) -> dict:
        return {"h": self.height_cells, "w": self.width_cells,
                "cell_size_m": self.cell_size_m, "origin": list(self.origin)}

    @classmethod
    def from_config(cls, cfg) -> "GroundGrid":
        """The grid to_config wrote as cfg."""
        cfg = require_object(cfg, "grid", ("h", "w", "cell_size_m", "origin"))
        origin = require_kind(cfg["origin"], list, "grid origin")
        return cls(height_cells=cfg["h"], width_cells=cfg["w"],
                   cell_size_m=cfg["cell_size_m"], origin=tuple(origin))


# each real-valued CameraPose field by its to_config key
_CAMERA_REALS = {"yaw": "yaw", "pitch": "pitch", "hfov": "horizontal_fov_rad",
                 "vfov": "vertical_fov_rad", "max_range": "max_range_m"}


@dataclass(frozen=True)
class CameraPose:
    """Calibrated candidate camera.

    yaw is measured from the world +x axis, pitch is the elevation of the
    optical axis (negative looks down). Angles in radians, lengths in meters,
    each held as a float (an int is read as one).
    """

    id: str
    position_3d: tuple[float, float, float]
    yaw: float
    pitch: float
    horizontal_fov_rad: float
    vertical_fov_rad: float
    max_range_m: float

    def __post_init__(self):
        require_kind(self.id, str, "camera id")
        for key, name in _CAMERA_REALS.items():
            object.__setattr__(self, name, require_real(
                getattr(self, name), f"camera {self.id} {key}"))
        object.__setattr__(self, "position_3d", tuple(
            require_real(v, f"camera {self.id} position")
            for v in self.position_3d))
        if len(self.position_3d) != 3:
            raise ValueError(f"camera {self.id} position must have 3 entries")
        if not (0.0 < self.horizontal_fov_rad < math.pi):
            raise ValueError(f"hfov out of (0, pi): {self.horizontal_fov_rad}")
        if not (0.0 < self.vertical_fov_rad < math.pi):
            raise ValueError(f"vfov out of (0, pi): {self.vertical_fov_rad}")
        if self.max_range_m <= 0:
            raise ValueError("max_range_m must be positive")
        if self.position_3d[2] <= 0:
            raise ValueError(f"camera {self.id} must be above the ground plane")

    @property
    def ground_position(self) -> tuple[float, float]:
        return (self.position_3d[0], self.position_3d[1])

    def frame_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(forward, right, up) unit vectors of the camera frame; computed
        once per pose and read-only.

        right is horizontal and derived from yaw alone, so the frame stays
        well defined for a straight-down camera.
        """
        return self._frame_axes

    @cached_property
    def _frame_axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        f = (cp * cy, cp * sy, sp)
        r = (sy, -cy, 0.0)
        u = (r[1] * f[2] - r[2] * f[1],  # right x forward
             r[2] * f[0] - r[0] * f[2],
             r[0] * f[1] - r[1] * f[0])
        return _read_only(np.array(f), np.array(r), np.array(u))

    def to_config(self) -> dict:
        return {"id": self.id, "position": list(self.position_3d),
                **{k: getattr(self, n) for k, n in _CAMERA_REALS.items()}}

    @classmethod
    def from_config(cls, cfg) -> "CameraPose":
        """The camera to_config wrote as cfg."""
        cfg = require_object(cfg, "camera", ("id", "position", *_CAMERA_REALS))
        cid = require_kind(cfg["id"], str, "camera id")
        position = require_kind(cfg["position"], list, f"camera {cid} position")
        return cls(id=cid, position_3d=tuple(position),
                   **{name: cfg[key] for key, name in _CAMERA_REALS.items()})


@dataclass(frozen=True)
class FovFootprint:
    """Rasterized ground-plane coverage of one camera: a read-only mask."""

    camera_id: str
    mask: np.ndarray

    def __post_init__(self):
        self.mask.setflags(write=False)

    @cached_property
    def area_cells(self) -> int:
        """The mask's covered-cell count, computed on first use."""
        return np.count_nonzero(self.mask)


def ground_axis_or_none(camera: CameraPose
                        ) -> tuple[np.ndarray | None, np.ndarray]:
    """Ground-plane unit optical axis and ground position of a camera.

    The axis is None for a straight-down camera, whose axis has no ground
    projection; pairwise diversity terms treat such cameras as
    contributing a zero dot product.
    """
    forward, _, _ = camera.frame_axes()
    gx, gy = forward[0], forward[1]
    norm = math.hypot(gx, gy)
    axis = None if norm < 1e-12 else np.array([gx / norm, gy / norm])
    return axis, np.array(camera.ground_position)


def project_footprint(camera: CameraPose, grid: GroundGrid) -> FovFootprint:
    """Rasterize a camera's view frustum footprint onto the ground grid.

    A cell is covered iff its center is inside the (rectangular-pyramid)
    frustum through the four image corners and within max_range_m ground
    distance of the camera's ground position.

    Only the box of rows and columns whose center lies within max_range_m
    of the camera along that axis is tested: hypot(a, b) is never below
    |a|, so every cell outside it fails the range test. Over the box each
    term is a column term plus a row term plus a scalar, summed in the
    order of the full-grid expression, so each cell's test has the bits of
    the full-grid one.
    """
    xs, ys = grid.cell_axes()
    cx, cy, cz = camera.position_3d
    forward, right, up = camera.frame_axes()
    mask = np.zeros(grid.shape, dtype=bool)
    vx, vy, vz = xs - cx, ys - cy, -cz
    cols = np.flatnonzero(np.abs(vx) <= camera.max_range_m)
    rows = np.flatnonzero(np.abs(vy) <= camera.max_range_m)
    if not (cols.size and rows.size):
        return FovFootprint(camera_id=camera.id, mask=mask)
    box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]

    # over the box, vx varies along its columns and vy along its rows
    vx, vy = vx[box[1]], vy[box[0], None]
    vf = forward[0] * vx + forward[1] * vy + forward[2] * vz
    vr = right[0] * vx + right[1] * vy + right[2] * vz
    vu = up[0] * vx + up[1] * vy + up[2] * vz

    tan_h = math.tan(camera.horizontal_fov_rad / 2.0)
    tan_v = math.tan(camera.vertical_fov_rad / 2.0)
    in_front = vf > 0
    mask[box] = (in_front
                 & (np.abs(vr) <= tan_h * vf)
                 & (np.abs(vu) <= tan_v * vf)
                 & (np.hypot(vx, vy) <= camera.max_range_m))
    return FovFootprint(camera_id=camera.id, mask=mask)


def floored_distance(x, y, point: tuple[float, float],
                     grid: GroundGrid) -> np.ndarray:
    """Ground distance from each (x, y) to point, floored at half a cell to
    guard inverse-distance terms against the singularity at the point."""
    return np.maximum(np.hypot(x - point[0], y - point[1]),
                      grid.cell_size_m / 2.0)


@dataclass(frozen=True)
class Scene:
    """Ground grid plus the calibrated candidate camera roster, with each
    camera's footprint projected on construction and the camera geometry
    that scoring reads computed on first use."""

    grid: GroundGrid
    cameras: tuple[CameraPose, ...]
    footprints: list[FovFootprint] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cameras", tuple(self.cameras))  # hashable
        if not self.cameras:
            raise ValueError("scene has no cameras")
        if len(set(self.camera_ids)) != len(self.cameras):
            raise ValueError("camera ids must be unique")
        footprints = [project_footprint(c, self.grid) for c in self.cameras]
        object.__setattr__(self, "footprints", footprints)
        object.__setattr__(self, "_by_id", {
            c.id: (i, c, f)
            for i, (c, f) in enumerate(zip(self.cameras, footprints))})
        object.__setattr__(self, "_pair_rows", {})

    @property
    def camera_ids(self) -> list[str]:
        return [c.id for c in self.cameras]

    def camera(self, camera_id: str) -> CameraPose:
        return self._by_id[camera_id][1]

    def footprint(self, camera_id: str) -> FovFootprint:
        return self._by_id[camera_id][2]

    def camera_index(self, camera_id: str) -> int:
        """The camera's position in the roster, self.cameras."""
        return self._by_id[camera_id][0]

    def footprint_window(self, camera_id: str
                         ) -> tuple[slice, slice, np.ndarray] | None:
        """The row and column slices of the bounding box of the camera's
        footprint, and over that box the floored ground distance from the
        camera on its footprint cells and +inf on every other cell; None
        for an empty footprint. Read-only: w / window adds w / distance on
        the footprint and exactly 0.0 elsewhere for any finite w."""
        return self._camera_table[camera_id][0]

    def footprint_mass(self, camera_id: str) -> float:
        """The sum of 1 / floored distance over the camera's footprint
        (footprint_window), its unit-weight inverse-distance mass; 0.0 for
        an empty footprint."""
        return self._camera_table[camera_id][1]

    def pair_row(self, camera_id: str) -> tuple[np.ndarray, np.ndarray]:
        """The ground-axis dot products and ground distances of the camera
        and each camera of the roster, in roster order, computed on the
        camera's first use; read-only. A dot product is 0.0 where either
        camera looks straight down. Each entry is one pair's own scalar
        expression, so its bits do not depend on the rest of the roster."""
        if camera_id not in self._pair_rows:
            ai, pi = self._camera_table[camera_id][2:]
            pairs = [(0.0 if ai is None or aj is None else float(ai @ aj),
                      float(np.linalg.norm(pi - pj)))
                     for _, _, aj, pj in self._camera_table.values()]
            self._pair_rows[camera_id] = _read_only(*np.array(pairs).T)
        return self._pair_rows[camera_id]

    def footprint_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every camera's footprint mask along the last axis of one
        (h, w, n_cameras) table, and each camera's covered-cell count and
        footprint_mass, in roster order; built on first use and
        read-only."""
        return self._footprint_table

    @cached_property
    def _footprint_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # one copy of the stacked masks, transposed, is faster than a stack
        # along the strided last axis
        masks = np.array([f.mask for f in self.footprints])
        return _read_only(
            masks.transpose(1, 2, 0).copy(),
            np.array([f.area_cells for f in self.footprints]),
            np.array([self.footprint_mass(c.id) for c in self.cameras]))

    @cached_property
    def _camera_table(self) -> dict:
        """Each camera's (footprint window, footprint mass, ground axis,
        ground position) by id, for every camera on first use. A window's
        distances are taken over the footprint's bounding box from the
        grid's cell axes, X varying by column and Y by row."""
        xs, ys = self.grid.cell_axes()
        table = {}
        for c, f in zip(self.cameras, self.footprints):
            window, mass = None, 0.0
            rows = np.flatnonzero(f.mask.any(axis=1))
            if rows.size:
                cols = np.flatnonzero(f.mask.any(axis=0))
                box = np.s_[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1]
                distance = floored_distance(xs[box[1]], ys[box[0], None],
                                            c.ground_position, self.grid)
                window = (*box, *_read_only(
                    np.where(f.mask[box], distance, np.inf)))
                mass = float((1.0 / window[2]).sum())
            table[c.id] = (window, mass, *ground_axis_or_none(c))
        return table

    def visibility_of(self, camera_ids: list[str]) -> np.ndarray:
        """Cellwise union of the cameras' footprints; no cameras give the
        all-false mask."""
        union = np.zeros(self.grid.shape, dtype=bool)
        for cid in camera_ids:
            union |= self.footprint(cid).mask
        return union

    def to_config(self) -> dict:
        return {"grid": self.grid.to_config(),
                "cameras": [c.to_config() for c in self.cameras]}

    @classmethod
    def from_config(cls, cfg) -> "Scene":
        """The scene to_config wrote as cfg; other top-level keys, such as
        the spec_hash that scene-gen adds, are ignored."""
        cfg = require_object(cfg, "scene", ("grid", "cameras"))
        cameras = require_kind(cfg["cameras"], list, "scene cameras")
        return cls(grid=GroundGrid.from_config(cfg["grid"]),
                   cameras=[CameraPose.from_config(c) for c in cameras])
