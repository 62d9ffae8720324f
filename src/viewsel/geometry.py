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


class DegenerateAxisError(ValueError):
    """Camera looks straight down; its ground-plane optical axis is undefined."""


class GridMismatchError(ValueError):
    """Mask dimensions do not match the grid they are combined on."""


def require_finite(values, what: str) -> np.ndarray:
    """values as a float array; raises ValueError if any entry is NaN or
    infinite, which would otherwise land silently in some grid cell."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each flagged read-only: a constant cached on a frozen
    object must not change under a caller's write."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class GroundGrid:
    """Metric ground-plane raster: h x w cells of cell_size_m meters."""

    height_cells: int
    width_cells: int
    cell_size_m: float = 0.5
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.height_cells < 1 or self.width_cells < 1:
            raise ValueError("grid must have at least one cell per axis")
        require_finite((self.cell_size_m, *self.origin),
                       "cell_size_m and origin")
        if self.cell_size_m <= 0:
            raise ValueError("cell_size_m must be positive")

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

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """World coordinates (X, Y) of all cell centers, each shaped (h, w);
        computed once per grid and read-only."""
        return self._cell_centers

    @cached_property
    def _cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        ox, oy = self.origin
        xs = ox + (np.arange(self.width_cells) + 0.5) * self.cell_size_m
        ys = oy + (np.arange(self.height_cells) + 0.5) * self.cell_size_m
        return _read_only(*np.meshgrid(xs, ys))

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
    def from_config(cls, cfg: dict) -> "GroundGrid":
        return cls(height_cells=int(cfg["h"]), width_cells=int(cfg["w"]),
                   cell_size_m=float(cfg["cell_size_m"]),
                   origin=(float(cfg["origin"][0]), float(cfg["origin"][1])))


@dataclass(frozen=True)
class CameraPose:
    """Calibrated candidate camera.

    yaw is measured from the world +x axis, pitch is the elevation of the
    optical axis (negative looks down). Angles in radians, lengths in meters.
    """

    id: str
    position_3d: tuple[float, float, float]
    yaw: float
    pitch: float
    horizontal_fov_rad: float
    vertical_fov_rad: float
    max_range_m: float

    def __post_init__(self):
        if len(self.position_3d) != 3:
            raise ValueError(f"camera {self.id} position must have 3 entries")
        require_finite((*self.position_3d, self.yaw, self.pitch,
                        self.max_range_m), f"camera {self.id} pose")
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
        forward = np.array([cp * cy, cp * sy, sp])
        right = np.array([sy, -cy, 0.0])
        up = np.cross(right, forward)
        return _read_only(forward, right, up)

    def to_config(self) -> dict:
        return {"id": self.id, "position": list(self.position_3d),
                "yaw": self.yaw, "pitch": self.pitch,
                "hfov": self.horizontal_fov_rad, "vfov": self.vertical_fov_rad,
                "max_range": self.max_range_m}

    @classmethod
    def from_config(cls, cfg: dict) -> "CameraPose":
        return cls(id=str(cfg["id"]),
                   position_3d=tuple(float(v) for v in cfg["position"]),
                   yaw=float(cfg["yaw"]), pitch=float(cfg["pitch"]),
                   horizontal_fov_rad=float(cfg["hfov"]),
                   vertical_fov_rad=float(cfg["vfov"]),
                   max_range_m=float(cfg["max_range"]))


@dataclass(frozen=True)
class FovFootprint:
    """Rasterized ground-plane coverage of one camera."""

    camera_id: str
    mask: np.ndarray
    area_cells: int

    def __post_init__(self):
        self.mask.setflags(write=False)
        if self.area_cells != int(self.mask.sum()):
            raise ValueError("area_cells inconsistent with mask")


def ground_axis_and_position(camera: CameraPose) -> tuple[np.ndarray, np.ndarray]:
    """Ground-plane unit optical axis and ground position of a camera.

    Raises DegenerateAxisError for a straight-down camera, whose axis has no
    ground projection; pairwise diversity terms treat such cameras as
    contributing a zero dot product.
    """
    forward, _, _ = camera.frame_axes()
    gx, gy = forward[0], forward[1]
    norm = math.hypot(gx, gy)
    if norm < 1e-12:
        raise DegenerateAxisError(f"camera {camera.id} looks straight down")
    axis = np.array([gx / norm, gy / norm])
    return axis, np.array(camera.ground_position)


def project_footprint(camera: CameraPose, grid: GroundGrid) -> FovFootprint:
    """Rasterize a camera's view frustum footprint onto the ground grid.

    A cell is covered iff its center is inside the (rectangular-pyramid)
    frustum through the four image corners and within max_range_m ground
    distance of the camera's ground position.
    """
    X, Y = grid.cell_centers()
    cx, cy, cz = camera.position_3d
    forward, right, up = camera.frame_axes()

    vx, vy, vz = X - cx, Y - cy, -cz
    vf = forward[0] * vx + forward[1] * vy + forward[2] * vz
    vr = right[0] * vx + right[1] * vy + right[2] * vz
    vu = up[0] * vx + up[1] * vy + up[2] * vz

    tan_h = math.tan(camera.horizontal_fov_rad / 2.0)
    tan_v = math.tan(camera.vertical_fov_rad / 2.0)
    in_front = vf > 0
    mask = (in_front
            & (np.abs(vr) <= tan_h * vf)
            & (np.abs(vu) <= tan_v * vf)
            & (np.hypot(X - cx, Y - cy) <= camera.max_range_m))
    return FovFootprint(camera_id=camera.id, mask=mask,
                        area_cells=int(mask.sum()))


def floored_distance(x, y, point: tuple[float, float],
                     grid: GroundGrid) -> np.ndarray:
    """Ground distance from each (x, y) to point, floored at half a cell to
    guard inverse-distance terms against the singularity at the point."""
    return np.maximum(np.hypot(x - point[0], y - point[1]),
                      grid.cell_size_m / 2.0)


def combined_visibility(footprints: list[FovFootprint],
                        grid: GroundGrid) -> np.ndarray:
    """Cellwise union of footprint masks; empty input gives the all-false mask."""
    union = np.zeros(grid.shape, dtype=bool)
    for fp in footprints:
        if fp.mask.shape != grid.shape:
            raise GridMismatchError(
                f"footprint {fp.camera_id} shape {fp.mask.shape} != {grid.shape}")
        union |= fp.mask
    return union


@dataclass(frozen=True)
class Scene:
    """Ground grid plus the calibrated candidate camera roster."""

    grid: GroundGrid
    cameras: list[CameraPose]
    footprints: list[FovFootprint] = field(default_factory=list)

    def __post_init__(self):
        if not self.footprints:
            object.__setattr__(
                self, "footprints",
                [project_footprint(c, self.grid) for c in self.cameras])
        if len(self.footprints) != len(self.cameras):
            raise ValueError("one footprint per camera required")
        cam_ids = [c.id for c in self.cameras]
        if len(set(cam_ids)) != len(cam_ids):
            raise ValueError("camera ids must be unique")
        if [f.camera_id for f in self.footprints] != cam_ids:
            raise ValueError("footprint ids must match camera ids in order")
        object.__setattr__(self, "_by_id", {
            c.id: (c, f) for c, f in zip(self.cameras, self.footprints)})

    @property
    def camera_ids(self) -> list[str]:
        return [c.id for c in self.cameras]

    def camera(self, camera_id: str) -> CameraPose:
        return self._by_id[camera_id][0]

    def footprint(self, camera_id: str) -> FovFootprint:
        return self._by_id[camera_id][1]

    def visibility_of(self, camera_ids: list[str]) -> np.ndarray:
        return combined_visibility(
            [self.footprint(cid) for cid in camera_ids], self.grid)

    def to_config(self) -> dict:
        return {"grid": self.grid.to_config(),
                "cameras": [c.to_config() for c in self.cameras]}

    @classmethod
    def from_config(cls, cfg: dict) -> "Scene":
        grid = GroundGrid.from_config(cfg["grid"])
        cameras = [CameraPose.from_config(c) for c in cfg["cameras"]]
        return cls(grid=grid, cameras=cameras)
