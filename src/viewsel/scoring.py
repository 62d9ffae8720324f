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
                       floored_distance, ground_axis_and_position)

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
    floored at half a cell (geometry.floored_distance).
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
        _add_camera_term(field, cam, fp, X, Y, grid, weight)
    return field


def _add_camera_term(field: np.ndarray, cam: CameraPose, fp: FovFootprint,
                     X: np.ndarray, Y: np.ndarray, grid: GroundGrid,
                     weight: np.ndarray | None) -> None:
    """Add one camera's weight / floored distance on its footprint cells."""
    cells = fp.mask
    d = floored_distance(X[cells], Y[cells], cam.ground_position, grid)
    field[cells] += (1.0 if weight is None else weight[cells]) / d


def _axis_and_position(cam: CameraPose) -> tuple[np.ndarray | None, np.ndarray]:
    """Ground axis (None for a straight-down camera) and ground position."""
    try:
        return ground_axis_and_position(cam)
    except DegenerateAxisError:
        return None, np.array(cam.ground_position)


def _diversity(axes: list[tuple[np.ndarray | None, np.ndarray]], lam: float,
               eps: float) -> float:
    """S_vd from each camera's (_axis_and_position), summed pair by pair in
    group order."""
    if lam <= 0 or eps <= 0:
        raise ValueError("lam and eps must be positive")
    acc = 0.0
    for i in range(len(axes)):
        for j in range(i + 1, len(axes)):
            (ai, pi), (aj, pj) = axes[i], axes[j]
            if ai is None or aj is None:
                continue
            acc += float(ai @ aj) / (float(np.linalg.norm(pi - pj)) + eps)
    return float(np.exp(-lam * acc))


def score_view_diversity(selected: list[CameraPose], lam: float = DEFAULT_LAMBDA,
                         eps: float = DEFAULT_EPSILON) -> float:
    """exp(-lam * sum over pairs of axis-dot / (camera distance + eps)).

    Straight-down cameras have no ground axis; any pair involving one
    contributes a zero dot product.
    """
    if not selected:
        raise ValueError("selected must be nonempty")
    return _diversity([_axis_and_position(cam) for cam in selected], lam, eps)


def score_round(group: list[CameraPose], candidates: list[CameraPose],
                scene: Scene, region: np.ndarray | None = None,
                weight: np.ndarray | None = None,
                lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPSILON,
                terms: tuple[str, ...] = ALL_TERMS,
                variant: str = "geometric") -> list[ScoreBreakdown]:
    """S_sc * S_ad * S_vd of group + [c] for each candidate c over a scored
    region (None: that group's FOV union) with a per-cell distance-field
    weight (None: unit); terms picks the factors multiplied into total, and
    an empty region scores 0. The group's field, union and axes are built
    once, and c, last in its group, adds only its own terms, in the order a
    from-scratch score of group + [c] adds them: the results are equal."""
    grid = scene.grid
    if region is not None and region.shape != grid.shape:
        raise ValueError("region does not match scene grid")
    if weight is not None and weight.shape != grid.shape:
        raise ValueError("weight does not match grid")
    footprints = [scene.footprint(cam.id) for cam in group]
    group_field = (inverse_distance_field(group, footprints, grid, weight)
                   if group else np.zeros(grid.shape))
    union = combined_visibility(footprints, grid)
    X, Y = grid.cell_centers()
    axes = [_axis_and_position(cam) for cam in group]
    breakdowns = []
    for cam in candidates:
        fp = scene.footprint(cam.id)
        field = group_field.copy()
        _add_camera_term(field, cam, fp, X, Y, grid, weight)
        scored = union | fp.mask if region is None else region
        s_vd = _diversity(axes + [_axis_and_position(cam)], lam, eps)
        n_region = int(scored.sum())
        s_sc = n_region / grid.n_cells
        s_ad = float(field[scored].sum()) / n_region if n_region else 0.0
        total = 1.0
        for term, factor in (("sc", s_sc), ("ad", s_ad), ("vd", s_vd)):
            if term in terms:
                total *= factor
        if n_region == 0:
            total = 0.0
        breakdowns.append(ScoreBreakdown(s_sc=s_sc, s_ad=s_ad, s_vd=s_vd,
                                         total=total, variant=variant))
    return breakdowns


def score(selected: list[CameraPose], scene: Scene,
          region: np.ndarray | None = None, weight: np.ndarray | None = None,
          lam: float = DEFAULT_LAMBDA, eps: float = DEFAULT_EPSILON,
          terms: tuple[str, ...] = ALL_TERMS,
          variant: str = "geometric") -> ScoreBreakdown:
    """S_sc * S_ad * S_vd of one camera group (score_round with its last
    camera as the only candidate)."""
    if not selected:
        raise ValueError("selected must be nonempty")
    return score_round(selected[:-1], selected[-1:], scene, region, weight,
                       lam, eps, terms, variant)[0]


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
