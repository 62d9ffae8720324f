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

A round (_Round) is the only builder of the distance field. It reads each
camera's constants from the scene's camera table (Scene.camera_table) by
roster position, and is built by advancing an empty group one camera at a
time: each camera adds its distance terms to the group field in place and
its footprint to the FOV union. A greedy round keeps only its best
candidate: a greedy run's scorer (round_scorer) screens every candidate
at once, as numpy vectors, and gives score_round's exact score only to
those within rounding of the best. It carries its round from one call to
the next, so each camera joins the group once, and the round hands its
winner's exact field and region sum to the next round, which adopts them
when the winner joins: a winner's term is stated once, in exact.
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
    here), the scene's camera table and its pair terms, and the distance
    field of its group, ids, built by advancing an empty group one camera
    at a time. For the geometric strategy it also carries the group's FOV
    union, union_bits, as words packed like the table's; Scene.unpack
    reads them back as the scored mask.
    term is the one statement of a camera's distance term; advance adds
    it to the field, exact scores ids + [c] on the full grid, and screen
    gives every candidate's total at once from vector sums, up to
    rounding (round_scorer). A candidate is named by roster position.
    mass is the field's sum over the group's scored region, 0.0 for the
    empty group and None when unknown. exact leaves its candidate's
    (position, field, region sum) as carry; winner keeps its winner's,
    and the next advance adopts them if it adds that camera."""

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
        self.table = scene.camera_table()
        self.pair_terms = self.table.dots / (self.table.distances + EPSILON)
        self.field = np.zeros(scene.grid.shape)
        self.ids, self.positions = [], []
        self.mass, self.carry = 0.0, None
        if region is None:
            self.union_bits = np.zeros_like(self.table.words[0])
        # a fixed region is counted once, a group's union as it grows
        self.n_scored = (0 if region is None
                         else int(np.count_nonzero(region)))

    def term(self, position: int) -> tuple[slice, slice, np.ndarray] | None:
        """The footprint window rows and cols of the camera at position
        and its finite weight / floored distance over them, None for an
        empty footprint: the window's other cells get exactly 0.0, which
        leaves a field's non-negative, never -0.0 values unchanged."""
        window = self.table.windows[position]
        if window is None:
            return None
        rows, cols, distance = window
        return rows, cols, ((1.0 if self.weight is None
                             else self.weight[rows, cols]) / distance)

    def advance(self, cid: str) -> None:
        """Append cid to the group: add its term to the field in place, in
        the order a from-scratch field adds it, or adopt the carry's field
        and region sum if exact left them for cid (the same add on the
        same inputs); for the geometric strategy, also OR its packed
        footprint into the union's words and count the union's cells.
        Every advance drops the carry."""
        position = self.scene.camera_index(cid)
        carry, self.carry = self.carry, None
        self.ids.append(cid)
        self.positions.append(position)
        if carry is not None and carry[0] == position:
            _, self.field, self.mass = carry
        else:
            self.mass = None
            term = self.term(position)
            if term is None:
                return
            rows, cols, values = term
            self.field[rows, cols] += values
        if self.region is None:
            self.union_bits |= self.table.words[position]
            self.n_scored = int(np.bitwise_count(self.union_bits).sum())

    def diversity(self, positions: np.ndarray) -> np.ndarray:
        """S_vd of ids + [c] for the candidates at the roster positions,
        their pair terms summed in itertools.combinations order: group
        camera i's pairs with the later group cameras, then with c."""
        acc = np.zeros(len(positions))
        for i, position in enumerate(self.positions):
            row = self.pair_terms[position]
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

    def exact(self, position: int, s_vd: float) -> ScoreBreakdown:
        """The score of ids + [c], c at position, given its diversity: c,
        last in its group, adds only its own terms to a copy of the group's
        field, in the order a from-scratch score of ids + [c] adds them, and
        the field's sum over the whole scored region is divided by the
        region's cell count from region_counts. The copy and the sum are
        left as carry."""
        field, term = self.field.copy(), self.term(position)
        if term is not None:
            rows, cols, values = term
            field[rows, cols] += values
        n_region = int(self.region_counts(np.array([position]))[0])
        scored = self.region
        if scored is None:
            scored = self.scene.unpack(
                self.union_bits | self.table.words[position])
        mass = float(field[scored].sum())
        self.carry = (int(position), field, mass)
        s_sc = n_region / self.scene.grid.n_cells
        s_ad = mass / n_region if n_region else 0.0
        return ScoreBreakdown(s_sc=s_sc, s_ad=s_ad, s_vd=s_vd,
                              total=float(self._total(s_sc, s_ad, s_vd)),
                              variant=self.strategy)

    def region_counts(self, positions: np.ndarray) -> np.ndarray:
        """The cell count of the scored region of ids + [c] for the
        candidates at the roster positions: a fixed region's, or the
        union's plus c's area less its overlap with the union, the
        popcount of c's packed row AND the union's words."""
        if self.region is not None:
            return np.full(len(positions), self.n_scored)
        overlap = np.bitwise_count(self.table.words[positions]
                                   & self.union_bits
                                   ).sum(axis=1, dtype=np.intp)
        return self.n_scored + self.table.areas[positions] - overlap

    def screen(self, positions: np.ndarray, s_vd: np.ndarray) -> np.ndarray:
        """exact(c, s_vd).total up to rounding for the candidates at the
        roster positions at once: the field's sum over the scored region
        is the group's, mass, summed here only when unknown, plus c's own
        terms on that region. A geometric candidate adds its unit-weight
        mass, and its footprint cells outside the union to the union's
        count (region_counts); a mask or density candidate adds its terms
        on the region's cells in its footprint window."""
        if self.mass is None:
            scored = (self.scene.unpack(self.union_bits)
                      if self.region is None else self.region)
            self.mass = float(self.field[scored].sum())
        n_region = self.region_counts(positions)
        if self.region is None:
            mass = self.mass + self.table.masses[positions]
        else:
            own = []
            for position in positions:
                term = self.term(position)
                if term is None:
                    own.append(0.0)
                    continue
                rows, cols, values = term
                own.append(float(values[self.region[rows, cols]].sum()))
            mass = self.mass + np.array(own)
        s_ad = np.divide(mass, n_region, out=np.zeros(len(positions)),
                         where=n_region > 0)
        return self._total(n_region / self.scene.grid.n_cells, s_ad, s_vd)

    def winner(self, candidates: list[str]) -> tuple[int, ScoreBreakdown]:
        """round_scorer's answer for ids + [c] over the candidates."""
        positions = _positions(self.scene, candidates)
        s_vd = self.diversity(positions)
        screened = self.screen(positions, s_vd)
        floor = screened.max() * (1.0 - SCREEN_TOL)
        best = carry = None
        for i in np.flatnonzero(screened >= floor):
            sb = self.exact(positions[i], float(s_vd[i]))
            if best is None or sb.total > best[1].total:
                best, carry = (int(i), sb), self.carry
        self.carry = carry
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
    the scene's camera table (Scene.camera_table)."""
    _require_distinct(group, candidates)
    rnd = _Round(scene, strategy, prediction, sigma_mode, terms)
    for cid in group:
        rnd.advance(cid)
    positions = _positions(scene, candidates)
    s_vd = rnd.diversity(positions)
    return [rnd.exact(p, float(v)) for p, v in zip(positions, s_vd)]


def round_scorer(scene: Scene, strategy: str,
                 prediction: DensityMap | None = None, sigma_mode="mean",
                 terms: tuple[str, ...] = ALL_TERMS):
    """A function of (group, candidates) that returns the index in
    candidates and the breakdown of the first maximum of score_round's
    totals, with score_round's other arguments bound and its errors, from
    fewer full-grid scores; no candidates raise ValueError.

    Every candidate is first screened at once: its total is computed from
    the group field's sum over the scored region, taken once per round,
    plus the candidate's own terms (its unit-weight mass from the scene's
    camera table for the geometric strategy, its window's sum on the
    region otherwise). Every summand is finite and non-negative, so
    both sums are within a relative (k + 2 log2 n_cells) * 2**-52 or so of
    the true one; only the candidates screened within SCREEN_TOL of the
    best get score_round's exact score, and the winner is the first of
    their maxima.

    The function keeps its round between calls: a group that extends the
    round's group advances the round by its new cameras, any other group
    starts a fresh round. A greedy run hands it the last group plus the
    last winner, so the run adds each camera's footprint once; the round
    adopts the winner's field and region sum from its exact score, so
    each winner's field term is stated once, in exact, and the group's
    region sum is taken once per round."""
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
