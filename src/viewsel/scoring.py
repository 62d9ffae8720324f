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

import itertools
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
    field = np.zeros(grid.shape)
    for cam, fp in zip(selected, footprints):
        _add_camera_term(field, fp.mask,
                         _footprint_distance(cam, fp.mask, grid), weight)
    return field


def _footprint_distance(cam: CameraPose, cells: np.ndarray,
                        grid: GroundGrid) -> np.ndarray:
    """Floored distance from cam's ground position to each cell center in
    cells, in row-major order."""
    X, Y = grid.cell_centers()
    return floored_distance(X[cells], Y[cells], cam.ground_position, grid)


def _add_camera_term(field: np.ndarray, cells: np.ndarray,
                     distance: np.ndarray, weight: np.ndarray | None) -> None:
    """Add one camera's weight / floored distance on its footprint cells."""
    field[cells] += (1.0 if weight is None else weight[cells]) / distance


def _axis_and_position(cam: CameraPose) -> tuple[np.ndarray | None, np.ndarray]:
    """Ground axis (None for a straight-down camera) and ground position."""
    try:
        return ground_axis_and_position(cam)
    except DegenerateAxisError:
        return None, np.array(cam.ground_position)


def _pair_term(a: tuple[np.ndarray | None, np.ndarray],
               b: tuple[np.ndarray | None, np.ndarray],
               eps: float) -> float | None:
    """Diversity term of two cameras' (_axis_and_position); None when
    either looks straight down."""
    (ai, pi), (aj, pj) = a, b
    if ai is None or aj is None:
        return None
    return float(ai @ aj) / (float(np.linalg.norm(pi - pj)) + eps)


def _diversity(pair_terms, lam: float, eps: float) -> float:
    """S_vd from the pair terms of a group (_pair_term), summed in the
    group's i < j pair order; None terms add nothing."""
    if lam <= 0 or eps <= 0:
        raise ValueError("lam and eps must be positive")
    acc = 0.0
    for term in pair_terms:
        if term is not None:
            acc += term
    return float(np.exp(-lam * acc))


def score_view_diversity(selected: list[CameraPose], lam: float = DEFAULT_LAMBDA,
                         eps: float = DEFAULT_EPSILON) -> float:
    """exp(-lam * sum over pairs of axis-dot / (camera distance + eps)).

    Straight-down cameras have no ground axis; any pair involving one
    contributes a zero dot product.
    """
    if not selected:
        raise ValueError("selected must be nonempty")
    axes = [_axis_and_position(cam) for cam in selected]
    return _diversity((_pair_term(a, b, eps)
                       for a, b in itertools.combinations(axes, 2)), lam, eps)


class _RunMemo:
    """The pure per-camera and per-pair terms of one selection run's scores,
    each computed on first use exactly as a from-scratch score computes it:
    a camera's floored distance on its footprint cells (the weight is
    applied afterwards, so rounds with different weights share it), its
    ground axis and position, and each ordered pair's diversity term.

    A run (run_ivs, run_avs) creates one and drops it when it returns; a
    score_round called on its own uses a fresh one."""

    def __init__(self, scene: Scene):
        self.scene = scene
        self._distance: dict[str, np.ndarray] = {}
        self._axis: dict[str, tuple[np.ndarray | None, np.ndarray]] = {}
        self._pair: dict[tuple[str, str, float], float | None] = {}

    def distance(self, cam: CameraPose) -> np.ndarray:
        if cam.id not in self._distance:
            self._distance[cam.id] = _footprint_distance(
                cam, self.scene.footprint(cam.id).mask, self.scene.grid)
        return self._distance[cam.id]

    def axis(self, cam: CameraPose) -> tuple[np.ndarray | None, np.ndarray]:
        if cam.id not in self._axis:
            self._axis[cam.id] = _axis_and_position(cam)
        return self._axis[cam.id]

    def pair(self, a: CameraPose, b: CameraPose, eps: float) -> float | None:
        key = (a.id, b.id, eps)
        if key not in self._pair:
            self._pair[key] = _pair_term(self.axis(a), self.axis(b), eps)
        return self._pair[key]

    def field(self, group: list[CameraPose],
              weight: np.ndarray | None) -> np.ndarray:
        """inverse_distance_field of the group (all zeros when empty), from
        the memo's distances; built once per greedy round."""
        field = np.zeros(self.scene.grid.shape)
        for cam in group:
            _add_camera_term(field, self.scene.footprint(cam.id).mask,
                             self.distance(cam), weight)
        return field

    def score_round(self, group: list[CameraPose],
                    candidates: list[CameraPose],
                    region: np.ndarray | None, weight: np.ndarray | None,
                    lam: float, eps: float, terms: tuple[str, ...],
                    variant: str) -> list[ScoreBreakdown]:
        """score_round on this memo's scene."""
        grid = self.scene.grid
        if region is not None and region.shape != grid.shape:
            raise ValueError("region does not match scene grid")
        if weight is not None and weight.shape != grid.shape:
            raise ValueError("weight does not match grid")
        footprints = [self.scene.footprint(cam.id) for cam in group]
        group_field = self.field(group, weight)
        union = combined_visibility(footprints, grid)
        breakdowns = []
        for cam in candidates:
            fp = self.scene.footprint(cam.id)
            field = group_field.copy()
            _add_camera_term(field, fp.mask, self.distance(cam), weight)
            scored = union | fp.mask if region is None else region
            s_vd = _diversity((self.pair(a, b, eps) for a, b in
                               itertools.combinations([*group, cam], 2)),
                              lam, eps)
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
    return _RunMemo(scene).score_round(group, candidates, region, weight,
                                       lam, eps, terms, variant)


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
