"""View-selection scores: one kernel over a scored region and a cell weight.

Every score is the product of three factors: the scored region's share of
the scene area (S_sc), the mean over that region of the inverse camera
distance field (S_ad), and an exponential view-diversity penalty (S_vd).
The variants differ only in the region and in the per-cell weight of the
distance field:

    variant     region                       weight
    geometric   FOV union of the group       1
    mask        binarized prediction         1
    density     binarized prediction         predicted density
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crowd import DensityMap
from .geometry import (CameraPose, DegenerateAxisError, FovFootprint,
                       GroundGrid, Scene, combined_visibility,
                       ground_axis_and_position)

DEFAULT_LAMBDA = 0.1
DEFAULT_EPSILON = 1e-10

ALL_TERMS = ("sc", "ad", "vd")


@dataclass(frozen=True)
class ScoreBreakdown:
    s_sc: float
    s_ad: float
    s_vd: float
    total: float
    variant: str  # "geometric" | "mask" | "density"

    def to_dict(self) -> dict:
        return {"s_sc": self.s_sc, "s_ad": self.s_ad, "s_vd": self.s_vd,
                "total": self.total, "variant": self.variant}


def score_scene_coverage(visible: np.ndarray, grid: GroundGrid) -> float:
    """Visible-cell fraction of the full scene area."""
    if visible.shape != grid.shape:
        raise ValueError("visible mask does not match grid")
    return float(visible.sum()) / grid.n_cells


def inverse_distance_field(selected: list[CameraPose],
                           footprints: list[FovFootprint],
                           grid: GroundGrid,
                           weight: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sum of weight / camera distance, each camera contributing
    only inside its own footprint; weight None means unit weight.

    Distances run from cell centers to the camera's ground position and are
    floored at half a cell to guard the inverse-distance singularity.
    """
    if not selected:
        raise ValueError("selected must be nonempty")
    if len(selected) != len(footprints):
        raise ValueError("one footprint per selected camera required")
    if weight is not None and weight.shape != grid.shape:
        raise ValueError("weight does not match grid")
    X, Y = grid.cell_centers()
    field = np.zeros(grid.shape)
    for cam, fp in zip(selected, footprints):
        cells = fp.mask
        cx, cy = cam.ground_position
        d = np.maximum(np.hypot(X[cells] - cx, Y[cells] - cy),
                       grid.cell_size_m / 2.0)
        field[cells] += (1.0 if weight is None else weight[cells]) / d
    return field


def score_view_diversity(selected: list[CameraPose], lam: float = DEFAULT_LAMBDA,
                         eps: float = DEFAULT_EPSILON) -> float:
    """exp(-lam * sum over pairs of axis-dot / (camera distance + eps)).

    Straight-down cameras have no ground axis; any pair involving one
    contributes a zero dot product.
    """
    if not selected:
        raise ValueError("selected must be nonempty")
    if lam <= 0 or eps <= 0:
        raise ValueError("lam and eps must be positive")
    axes = []
    positions = []
    for cam in selected:
        try:
            axis, pos = ground_axis_and_position(cam)
        except DegenerateAxisError:
            axis, pos = None, np.array(cam.ground_position)
        axes.append(axis)
        positions.append(pos)
    acc = 0.0
    for i in range(len(selected)):
        for j in range(i + 1, len(selected)):
            if axes[i] is None or axes[j] is None:
                continue
            dot = float(axes[i] @ axes[j])
            dist = float(np.linalg.norm(positions[i] - positions[j]))
            acc += dot / (dist + eps)
    return float(np.exp(-lam * acc))


def score(selected: list[CameraPose], scene: Scene,
          region: np.ndarray | None = None, weight: np.ndarray | None = None,
          lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPSILON,
          terms: tuple[str, ...] = ALL_TERMS,
          variant: str = "geometric") -> ScoreBreakdown:
    """S_sc * S_ad * S_vd of a camera group over a scored region (None: the
    group's FOV union) with a per-cell distance-field weight (None: unit).

    terms picks the factors multiplied into total; an empty region scores 0.
    """
    if not selected:
        raise ValueError("selected must be nonempty")
    footprints = [scene.footprint(cam.id) for cam in selected]
    if region is None:
        region = combined_visibility(footprints, scene.grid)
    elif region.shape != scene.grid.shape:
        raise ValueError("region does not match scene grid")
    field = inverse_distance_field(selected, footprints, scene.grid, weight)
    s_vd = score_view_diversity(selected, lam, eps)
    n_region = int(region.sum())
    s_sc = n_region / scene.grid.n_cells
    s_ad = float(field[region].sum()) / n_region if n_region else 0.0
    total = 1.0
    for term, factor in (("sc", s_sc), ("ad", s_ad), ("vd", s_vd)):
        if term in terms:
            total *= factor
    if n_region == 0:
        total = 0.0
    return ScoreBreakdown(s_sc=s_sc, s_ad=s_ad, s_vd=s_vd, total=total,
                          variant=variant)


def binarize_density(density: DensityMap, sigma_mode) -> np.ndarray:
    """Threshold a density map into a crowd-region mask (strict inequality).

    sigma_mode "mean" uses the mean of the map; a float is an absolute
    threshold. An all-zero map under "mean" yields the all-false mask.
    """
    if sigma_mode == "mean":
        threshold = float(density.values.mean())
    else:
        threshold = float(sigma_mode)
    return density.values > threshold


def score_geometric(selected: list[CameraPose], scene: Scene,
                    lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPSILON,
                    terms: tuple[str, ...] = ALL_TERMS) -> ScoreBreakdown:
    """Score over the selected views' FOV union with unit weight."""
    return score(selected, scene, None, None, lam, eps, terms, "geometric")


def score_mask(selected: list[CameraPose], scene: Scene,
               prediction: DensityMap, sigma_mode="mean",
               lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPSILON,
               terms: tuple[str, ...] = ALL_TERMS) -> ScoreBreakdown:
    """Score over the binarized prediction with unit weight."""
    return score(selected, scene, binarize_density(prediction, sigma_mode),
                 None, lam, eps, terms, "mask")


def score_density(selected: list[CameraPose], scene: Scene,
                  prediction: DensityMap, sigma_mode="mean",
                  lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPSILON,
                  terms: tuple[str, ...] = ALL_TERMS) -> ScoreBreakdown:
    """Score over the binarized prediction, weighted by the prediction."""
    return score(selected, scene, binarize_density(prediction, sigma_mode),
                 prediction.values, lam, eps, terms, "density")
