"""View-selection scores: one kernel, score_round, over a scored region and
a cell weight.

Every score is the product of three factors: the scored region's share of
the scene area (S_sc), the mean over that region of the inverse camera
distance field (S_ad), and an exponential view-diversity penalty (S_vd).
The strategies differ only in the region and in the per-cell weight of the
distance field:

    strategy    region                       weight
    geometric   FOV union of the group       1
    mask        binarized prediction         1
    density     binarized prediction         predicted density
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crowd import DensityMap
from .geometry import CameraPose, Scene, require_finite

# S_vd = exp(-LAMBDA * sum of dot / (distance + EPSILON)) over camera pairs
LAMBDA = 0.1
EPSILON = 1e-10

ALL_TERMS = ("sc", "ad", "vd")


@dataclass(frozen=True)
class ScoreBreakdown:
    s_sc: float
    s_ad: float
    s_vd: float
    total: float
    variant: str  # the strategy scored: "geometric" | "mask" | "density"


def inverse_distance_field(group: list[CameraPose], scene: Scene,
                           weight: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sum of weight / camera distance, each camera contributing
    only inside its own footprint; weight None means unit weight, and an
    empty group gives all zeros. A non-finite weight raises ValueError.

    Distances run from cell centers to the camera's ground position and are
    floored at half a cell (Scene.footprint_window).
    """
    if weight is not None:
        if weight.shape != scene.grid.shape:
            raise ValueError("weight does not match grid")
        require_finite(weight, "weight")
    field = np.zeros(scene.grid.shape)
    for cam in group:
        _add_camera_term(field, scene, cam.id, weight)
    return field


def _add_camera_term(field: np.ndarray, scene: Scene, camera_id: str,
                     weight: np.ndarray | None) -> None:
    """Add one camera's finite weight / floored distance on its footprint
    cells, through its window: the other cells of the box get exactly 0.0,
    which leaves the field's non-negative, never -0.0 values unchanged."""
    window = scene.footprint_window(camera_id)
    if window is None:
        return
    rows, cols, distance = window
    field[rows, cols] += ((1.0 if weight is None else weight[rows, cols])
                          / distance)


def _pair_term(geometry: tuple[float, float] | None) -> float:
    """Diversity term dot / (distance + EPSILON) of a pair's
    Scene.pair_geometry; 0.0 when either camera looks straight down."""
    return 0.0 if geometry is None else geometry[0] / (geometry[1] + EPSILON)


def _diversity(pair_terms) -> float:
    """S_vd from the pair terms of a group (_pair_term), summed in the
    group's i < j pair order (a 0.0 term leaves the sum unchanged)."""
    acc = 0.0
    for term in pair_terms:
        acc += term
    return float(np.exp(-LAMBDA * acc))


def score_round(group: list[CameraPose], candidates: list[CameraPose],
                scene: Scene, strategy: str,
                prediction: DensityMap | None = None, sigma_mode="mean",
                terms: tuple[str, ...] = ALL_TERMS) -> list[ScoreBreakdown]:
    """S_sc * S_ad * S_vd of group + [c] for each candidate c under
    strategy, which picks the scored region and the per-cell
    distance-field weight by the table of the module docstring; the
    prediction is binarized (binarize_density) once per call. terms picks
    the factors multiplied into total, and an empty region scores 0. A
    strategy with no score, or a mask or density call without a
    prediction on the scene grid raises ValueError (a DensityMap holds
    only finite values, so its weight is finite). The
    group's field, union and pair terms are built once, and c, last in
    its group, adds only its own terms, in the order a from-scratch score
    of group + [c] adds them: the results are equal. The footprint windows
    and pair geometry come from the scene (Scene.footprint_window,
    Scene.pair_geometry)."""
    grid = scene.grid
    region = weight = None
    if strategy in ("mask", "density"):
        if prediction is None or prediction.values.shape != grid.shape:
            raise ValueError(f"the {strategy} score needs a prediction on "
                             f"the scene grid")
        region = binarize_density(prediction, sigma_mode)
        if strategy == "density":
            weight = prediction.values
    elif strategy != "geometric":
        raise ValueError(f"strategy {strategy!r} has no score")
    group_field = inverse_distance_field(group, scene, weight)
    ids = [cam.id for cam in group]
    union = scene.visibility_of(ids)
    group_pairs = [[_pair_term(scene.pair_geometry(a, b))
                    for b in ids[i + 1:]] for i, a in enumerate(ids)]
    # a fixed region is counted once, a group's union once per candidate
    scored = region
    n_region = None if region is None else int(np.count_nonzero(region))
    breakdowns = []
    for cam in candidates:
        field = group_field.copy()
        _add_camera_term(field, scene, cam.id, weight)
        if region is None:
            scored = union | scene.footprint(cam.id).mask
            n_region = int(np.count_nonzero(scored))
        # the i < j pairs of group + [cam] in itertools.combinations order:
        # group camera i's pairs with the later group cameras, then with cam
        s_vd = _diversity(
            term for a, row in zip(ids, group_pairs)
            for term in [*row, _pair_term(scene.pair_geometry(a, cam.id))])
        s_sc = n_region / grid.n_cells
        s_ad = float(field[scored].sum()) / n_region if n_region else 0.0
        total = 1.0
        for term, factor in (("sc", s_sc), ("ad", s_ad), ("vd", s_vd)):
            if term in terms:
                total *= factor
        if n_region == 0:
            total = 0.0
        breakdowns.append(ScoreBreakdown(s_sc=s_sc, s_ad=s_ad, s_vd=s_vd,
                                         total=total, variant=strategy))
    return breakdowns


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
