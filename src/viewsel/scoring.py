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

A greedy round keeps only its best candidate: round_winner screens every
candidate from sums over its footprint window and gives score_round's exact
score only to those within rounding of the best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crowd import DensityMap
from .geometry import Scene
from .serialize import require_finite, require_real

# S_vd = exp(-LAMBDA * sum of dot / (distance + EPSILON)) over camera pairs
LAMBDA = 0.1
EPSILON = 1e-10

ALL_TERMS = ("sc", "ad", "vd")

# round_winner scores a candidate exactly when its screened total is at
# least (1 - SCREEN_TOL) times the round's best screened total; rounding
# moves a screened total by under 1e-13 of it on a 40k-cell grid
SCREEN_TOL = 1e-9


@dataclass(frozen=True)
class ScoreBreakdown:
    s_sc: float
    s_ad: float
    s_vd: float
    total: float
    variant: str  # the strategy scored: "geometric" | "mask" | "density"


def inverse_distance_field(group: list[str], scene: Scene,
                           weight: np.ndarray | None = None) -> np.ndarray:
    """Per-cell sum of weight / camera distance, each camera id in group
    contributing only inside its own footprint; weight None means unit
    weight, an empty group all zeros, and a non-finite weight ValueError.

    Distances run from cell centers to the camera's ground position and are
    floored at half a cell (Scene.footprint_window).
    """
    if weight is not None:
        if weight.shape != scene.grid.shape:
            raise ValueError("weight does not match grid")
        require_finite(weight, "weight")
    field = np.zeros(scene.grid.shape)
    for cid in group:
        _add_camera_term(field, scene, cid, weight)
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


class _Round:
    """One greedy round's setup under strategy, built once: the group's
    distance field, union and pair terms, and the strategy's region and
    weight (the module docstring's table; the prediction is binarized here).
    exact scores group + [c] on the full grid; screen gives the same total
    from two sums, up to rounding (round_winner)."""

    def __init__(self, group: list[str], scene: Scene, strategy: str,
                 prediction: DensityMap | None, sigma_mode,
                 terms: tuple[str, ...]):
        region = weight = None
        if strategy in ("mask", "density"):
            if (prediction is None
                    or prediction.values.shape != scene.grid.shape):
                raise ValueError(f"the {strategy} score needs a prediction "
                                 f"on the scene grid")
            region = binarize_density(prediction, sigma_mode)
            if strategy == "density":
                weight = prediction.values
        elif strategy != "geometric":
            raise ValueError(f"strategy {strategy!r} has no score")
        self.scene, self.strategy, self.terms = scene, strategy, terms
        self.region, self.weight = region, weight
        self.field = inverse_distance_field(group, scene, weight)
        self.ids = group
        self.union = scene.visibility_of(self.ids)
        self.pairs = [[_pair_term(scene.pair_geometry(a, b))
                       for b in self.ids[i + 1:]]
                      for i, a in enumerate(self.ids)]
        # a fixed region is counted once, a group's union once per candidate
        scored = self.union if region is None else region
        self.n_scored = int(np.count_nonzero(scored))
        # the field is 0.0 off the union, so its sum over the union is its
        # sum over the union of group + [c]
        self.mass = float(self.field[scored].sum())

    def diversity(self, camera_id: str) -> float:
        """S_vd of group + [c], its pair terms summed in
        itertools.combinations order: group camera i's pairs with the later
        group cameras, then with c."""
        acc = 0.0
        for a, row in zip(self.ids, self.pairs):
            for term in row:
                acc += term
            acc += _pair_term(self.scene.pair_geometry(a, camera_id))
        return float(np.exp(-LAMBDA * acc))

    def _total(self, s_sc: float, s_ad: float, s_vd: float) -> float:
        """The product of the factors that terms picks; 0 on an empty
        region."""
        total = 1.0
        for term, factor in (("sc", s_sc), ("ad", s_ad), ("vd", s_vd)):
            if term in self.terms:
                total *= factor
        return total if s_sc else 0.0

    def exact(self, cid: str, s_vd: float) -> ScoreBreakdown:
        """The score of group + [cid], given its diversity: cid, last in
        its group, adds only its own terms to a copy of the group's field,
        in the order a from-scratch score of group + [cid] adds them, and
        the field is summed over the whole scored region."""
        field = self.field.copy()
        _add_camera_term(field, self.scene, cid, self.weight)
        scored, n_region = self.region, self.n_scored
        if scored is None:
            scored = self.union | self.scene.footprint(cid).mask
            n_region = int(np.count_nonzero(scored))
        s_sc = n_region / self.scene.grid.n_cells
        s_ad = float(field[scored].sum()) / n_region if n_region else 0.0
        return ScoreBreakdown(s_sc=s_sc, s_ad=s_ad, s_vd=s_vd,
                              total=self._total(s_sc, s_ad, s_vd),
                              variant=self.strategy)

    def screen(self, cid: str, s_vd: float) -> float:
        """exact(cid, s_vd).total up to rounding, from cid's footprint
        window alone: the field's sum over the scored region is the
        group's (self.mass) plus cid's own terms on that region, and a
        union's count grows by cid's footprint cells outside it."""
        n_region, mass = self.n_scored, 0.0
        window = self.scene.footprint_window(cid)
        if window is not None:
            rows, cols, distance = window
            if self.region is None:
                fp = self.scene.footprint(cid).mask[rows, cols]
                n_region += int(np.count_nonzero(fp & ~self.union[rows, cols]))
                mass = self.scene.footprint_mass(cid)
            else:
                term = (1.0 if self.weight is None
                        else self.weight[rows, cols]) / distance
                mass = float(term[self.region[rows, cols]].sum())
        s_ad = (self.mass + mass) / n_region if n_region else 0.0
        return self._total(n_region / self.scene.grid.n_cells, s_ad, s_vd)


def score_round(group: list[str], candidates: list[str], scene: Scene,
                strategy: str, prediction: DensityMap | None = None,
                sigma_mode="mean", terms: tuple[str, ...] = ALL_TERMS
                ) -> list[ScoreBreakdown]:
    """S_sc * S_ad * S_vd of group + [c] for each candidate c, by camera id,
    under strategy, which picks the scored region and the per-cell
    distance-field weight by the table of the module docstring; the
    prediction is binarized (binarize_density) once per call. terms picks
    the factors multiplied into total, and an empty region scores 0. An
    unknown id raises KeyError; an unscored strategy, or a mask or density
    call without a prediction on the scene grid, ValueError (a DensityMap
    holds only finite values, so its weight is finite). The round's setup
    is built once (_Round), and each score equals the from-scratch score
    of group + [c], whose footprint windows and pair geometry come from
    the scene (Scene.footprint_window, Scene.pair_geometry)."""
    rnd = _Round(group, scene, strategy, prediction, sigma_mode, terms)
    return [rnd.exact(cid, rnd.diversity(cid)) for cid in candidates]


def round_winner(group: list[str], candidates: list[str], scene: Scene,
                 strategy: str, prediction: DensityMap | None = None,
                 sigma_mode="mean", terms: tuple[str, ...] = ALL_TERMS
                 ) -> tuple[int, ScoreBreakdown]:
    """The index in candidates and the breakdown of the first maximum of
    score_round's totals, with score_round's arguments and errors, from
    fewer full-grid scores. Each candidate is first screened: its total is
    computed from the group field's sum over the scored region, taken once
    per round, plus the candidate's own terms in its footprint window
    (Scene.footprint_mass for the geometric strategy). Every summand is
    finite and non-negative, so both sums are within a relative
    (k + 2 log2 n_cells) * 2**-52 or so of the true one; only the
    candidates screened within SCREEN_TOL of the best get score_round's
    exact score, and the winner is the first of their maxima."""
    if not candidates:
        raise ValueError("no candidates to score")
    rnd = _Round(group, scene, strategy, prediction, sigma_mode, terms)
    diversity = [rnd.diversity(cid) for cid in candidates]
    screened = [rnd.screen(cid, s_vd)
                for cid, s_vd in zip(candidates, diversity)]
    floor = max(screened) * (1.0 - SCREEN_TOL)
    best = None
    for i, total in enumerate(screened):
        if total >= floor:
            sb = rnd.exact(candidates[i], diversity[i])
            if best is None or sb.total > best[1].total:
                best = (i, sb)
    return best


def binarize_density(density: DensityMap, sigma_mode) -> np.ndarray:
    """Threshold a density map into a crowd-region mask (strict inequality).

    sigma_mode "mean" uses the mean of the map; a float is an absolute
    threshold, and a NaN or infinite one raises ValueError. An all-zero map
    under "mean" yields the all-false mask.
    """
    if sigma_mode == "mean":
        threshold = float(density.values.mean())
    else:
        threshold = require_real(sigma_mode, "sigma_mode")
    return density.values > threshold
