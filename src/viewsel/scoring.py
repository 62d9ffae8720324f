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

A round (_Round) is the only builder of the distance field. It is built by
advancing an empty group one camera at a time: each camera adds its
distance terms to the group field in place, its footprint to the FOV union
and its row of diversity pair terms. A greedy round keeps only its best
candidate: a greedy run's scorer (round_scorer) screens every candidate
at once, as numpy vectors, and gives score_round's exact score only to
those within rounding of the best. It carries its round from one call to
the next, so each camera joins the group once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crowd import DensityMap
from .geometry import Scene
from .serialize import require_real

# S_vd = exp(-LAMBDA * sum of dot / (distance + EPSILON)) over camera pairs
LAMBDA = 0.1
EPSILON = 1e-10

ALL_TERMS = ("sc", "ad", "vd")

# round_scorer scores a candidate exactly when its screened total is at
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


def _positions(scene: Scene, camera_ids: list[str]) -> np.ndarray:
    """The cameras' positions in the scene's roster."""
    return np.array([scene.camera_index(cid) for cid in camera_ids],
                    dtype=np.intp)


class _Round:
    """A greedy round's state under strategy: the strategy's region and
    weight (the module docstring's table; the prediction is binarized
    here), and the distance field and pair-term rows of its group, ids,
    built by advancing an empty group one camera at a time. For the
    geometric strategy it also carries the group's FOV union, as a bool
    mask and as words packed like Scene.footprint_table's rows.
    term is the one statement of a camera's distance term; advance adds
    it to the field, exact scores ids + [c] on the full grid, and screen
    gives every candidate's total at once from vector sums, up to
    rounding (round_scorer)."""

    def __init__(self, scene: Scene, strategy: str,
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
        self.field = np.zeros(scene.grid.shape)
        self.ids, self.positions, self.pair_terms = [], [], []
        if region is None:
            self.union = np.zeros(scene.grid.shape, dtype=bool)
            self.union_bits = np.zeros_like(scene.footprint_table()[0][0])
        # a fixed region is counted once, a group's union as it grows
        self.n_scored = (0 if region is None
                         else int(np.count_nonzero(region)))

    def term(self, cid: str) -> tuple[slice, slice, np.ndarray] | None:
        """cid's footprint window rows and cols (Scene.footprint_window)
        and its finite weight / floored distance over them, None for an
        empty footprint: the window's other cells get exactly 0.0, which
        leaves a field's non-negative, never -0.0 values unchanged."""
        window = self.scene.footprint_window(cid)
        if window is None:
            return None
        rows, cols, distance = window
        return rows, cols, ((1.0 if self.weight is None
                             else self.weight[rows, cols]) / distance)

    def advance(self, cid: str) -> None:
        """Append cid to the group: add its term to the field in place, in
        the order a from-scratch field adds it, and keep its row of pair
        terms with the roster; for the geometric strategy, also add its
        footprint to the union and count the union's cells."""
        position = self.scene.camera_index(cid)
        term = self.term(cid)
        dots, distances = self.scene.pair_row(cid)
        self.ids.append(cid)
        self.positions.append(position)
        self.pair_terms.append(dots / (distances + EPSILON))
        if term is None:
            return
        rows, cols, values = term
        self.field[rows, cols] += values
        if self.region is None:
            mask = self.scene.footprint(cid).mask
            self.union[rows, cols] |= mask[rows, cols]
            self.union_bits |= self.scene.footprint_table()[0][position]
            self.n_scored = int(np.bitwise_count(self.union_bits).sum())

    def diversity(self, positions: np.ndarray) -> np.ndarray:
        """S_vd of ids + [c] for the candidates at the roster positions,
        their pair terms summed in itertools.combinations order: group
        camera i's pairs with the later group cameras, then with c."""
        acc = np.zeros(len(positions))
        for i, row in enumerate(self.pair_terms):
            for later in self.positions[i + 1:]:
                acc += row[later]
            acc += row[positions]
        return np.exp(-LAMBDA * acc)

    def _total(self, s_sc, s_ad, s_vd):
        """The product of the factors that terms picks, elementwise; 0 on
        an empty region."""
        total = 1.0
        for term, factor in (("sc", s_sc), ("ad", s_ad), ("vd", s_vd)):
            if term in self.terms:
                total *= factor
        return np.where(s_sc != 0, total, 0.0)

    def exact(self, cid: str, s_vd: float) -> ScoreBreakdown:
        """The score of ids + [cid], given its diversity: cid, last in its
        group, adds only its own terms to a copy of the group's field, in
        the order a from-scratch score of ids + [cid] adds them, and the
        field is summed over the whole scored region."""
        field, term = self.field.copy(), self.term(cid)
        if term is not None:
            rows, cols, values = term
            field[rows, cols] += values
        scored, n_region = self.region, self.n_scored
        if scored is None:
            scored = self.union | self.scene.footprint(cid).mask
            n_region = int(np.count_nonzero(scored))
        s_sc = n_region / self.scene.grid.n_cells
        s_ad = float(field[scored].sum()) / n_region if n_region else 0.0
        return ScoreBreakdown(s_sc=s_sc, s_ad=s_ad, s_vd=s_vd,
                              total=float(self._total(s_sc, s_ad, s_vd)),
                              variant=self.strategy)

    def region_counts(self, positions: np.ndarray) -> np.ndarray:
        """The cell count of the scored region of ids + [c] for the
        candidates at the roster positions: a fixed region's, or the
        union's plus c's area less its overlap with the union, the
        popcount of c's packed row (Scene.footprint_table) AND the union's
        words."""
        if self.region is not None:
            return np.full(len(positions), self.n_scored)
        table, areas, _ = self.scene.footprint_table()
        overlap = np.bitwise_count(table[positions] & self.union_bits
                                   ).sum(axis=1, dtype=np.intp)
        return self.n_scored + areas[positions] - overlap

    def screen(self, candidates: list[str], positions: np.ndarray,
               s_vd: np.ndarray) -> np.ndarray:
        """exact(c, s_vd).total up to rounding for every candidate at once:
        the field's sum over the scored region is the group's, taken once,
        plus c's own terms on that region. A geometric candidate adds its
        unit-weight mass (Scene.footprint_table), and its footprint cells
        outside the union to the union's count (region_counts); a mask or
        density candidate adds its terms on the region's cells in its
        footprint window."""
        scored = self.union if self.region is None else self.region
        group_mass = float(self.field[scored].sum())
        n_region = self.region_counts(positions)
        if self.region is None:
            mass = group_mass + self.scene.footprint_table()[2][positions]
        else:
            own = []
            for cid in candidates:
                term = self.term(cid)
                if term is None:
                    own.append(0.0)
                    continue
                rows, cols, values = term
                own.append(float(values[self.region[rows, cols]].sum()))
            mass = group_mass + np.array(own)
        s_ad = np.divide(mass, n_region, out=np.zeros(len(candidates)),
                         where=n_region > 0)
        return self._total(n_region / self.scene.grid.n_cells, s_ad, s_vd)

    def winner(self, candidates: list[str]) -> tuple[int, ScoreBreakdown]:
        """round_scorer's answer for ids + [c] over the candidates."""
        positions = _positions(self.scene, candidates)
        s_vd = self.diversity(positions)
        screened = self.screen(candidates, positions, s_vd)
        floor = screened.max() * (1.0 - SCREEN_TOL)
        best = None
        for i in np.flatnonzero(screened >= floor):
            sb = self.exact(candidates[i], float(s_vd[i]))
            if best is None or sb.total > best[1].total:
                best = (int(i), sb)
        return best


def _require_distinct(group: list[str], candidates: list[str]) -> None:
    """Refuse a camera that group and candidates name twice between them:
    a score of group + [c] takes each camera's terms once."""
    seen = set()
    for cid in (*group, *candidates):
        if cid in seen:
            raise ValueError(f"camera {cid!r} is named twice in a score")
        seen.add(cid)


def score_round(group: list[str], candidates: list[str], scene: Scene,
                strategy: str, prediction: DensityMap | None = None,
                sigma_mode="mean", terms: tuple[str, ...] = ALL_TERMS
                ) -> list[ScoreBreakdown]:
    """S_sc * S_ad * S_vd of group + [c] for each candidate c, by camera id,
    under strategy, which picks the scored region and the per-cell
    distance-field weight by the table of the module docstring; the
    prediction is binarized (binarize_density) once per call. terms picks
    the factors multiplied into total, and an empty region scores 0. An
    unknown id raises KeyError; a camera named twice across group and
    candidates, an unscored strategy, or a mask or density call without
    a prediction on the scene grid, ValueError (a DensityMap
    holds only finite values, so its weight is finite). The group's round
    is built once (_Round), and each score equals the from-scratch score
    of group + [c], whose footprint windows and pair geometry come from
    the scene (Scene.footprint_window, Scene.pair_row)."""
    _require_distinct(group, candidates)
    rnd = _Round(scene, strategy, prediction, sigma_mode, terms)
    for cid in group:
        rnd.advance(cid)
    s_vd = rnd.diversity(_positions(scene, candidates))
    return [rnd.exact(cid, float(v)) for cid, v in zip(candidates, s_vd)]


def round_scorer(scene: Scene, strategy: str,
                 prediction: DensityMap | None = None, sigma_mode="mean",
                 terms: tuple[str, ...] = ALL_TERMS):
    """A function of (group, candidates) that returns the index in
    candidates and the breakdown of the first maximum of score_round's
    totals, with score_round's other arguments bound and its errors, from
    fewer full-grid scores; no candidates raise ValueError.

    Every candidate is first screened at once: its total is computed from
    the group field's sum over the scored region, taken once per round,
    plus the candidate's own terms (its unit-weight mass from
    Scene.footprint_table for the geometric strategy, its window's sum on
    the region otherwise). Every summand is finite and non-negative, so
    both sums are within a relative (k + 2 log2 n_cells) * 2**-52 or so of
    the true one; only the candidates screened within SCREEN_TOL of the
    best get score_round's exact score, and the winner is the first of
    their maxima.

    The function keeps its round between calls: a group that extends the
    round's group advances the round by its new cameras, any other group
    starts a fresh round. A greedy run hands it the last group plus the
    last winner, so the run adds each camera's field term, footprint and
    pair-term row once."""
    rnd = _Round(scene, strategy, prediction, sigma_mode, terms)

    def score_fn(group: list[str], candidates: list[str]
                 ) -> tuple[int, ScoreBreakdown]:
        nonlocal rnd
        if not candidates:
            raise ValueError("no candidates to score")
        _require_distinct(group, candidates)
        if list(group[:len(rnd.ids)]) != rnd.ids:
            rnd = _Round(scene, strategy, prediction, sigma_mode, terms)
        for cid in group[len(rnd.ids):]:
            rnd.advance(cid)
        return rnd.winner(candidates)
    return score_fn


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
