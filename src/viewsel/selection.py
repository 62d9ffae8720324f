"""View selection strategies: frame selection, greedy view addition, the
independent and active pipelines, and random baselines.

Pseudo-label supervision mixes unselected views into training in two
stages. One builder, make_pseudo_pair, states the contract a pair of
either stage meets: its loss mask is where the selected group and the
pair's inputs both see. The pipelines build no pairs: they run the
supervision as fractional view-frame credit (_epoch_credit). Both read a
stage's count of unselected views from _pseudo_views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .crowd import (CrowdFrame, DensityMap, accumulate_density, check_trace,
                    kernel_table)
from .geometry import Scene
from .predictor import (PredictorConfig, calibrate, noisy_draw,
                        noisy_predict, oracle_predict, training_mae)
from .scoring import ALL_TERMS, ScoreBreakdown, round_scorer
from .serialize import (require_int, require_kind, require_object,
                        require_real, require_seed)

STRATEGIES = ("geometric", "mask", "density", "random")
PSEUDO_STAGES = ("none", "viewsel", "modeltrain", "both")
# an unselected view's pseudo-label credit per view-frame, as a fraction of
# a labeled view's
PSEUDO_CREDIT = 0.25


@dataclass(frozen=True)
class SelectionConfig:
    k_max: int = 5
    n_frames: int = 20
    strategy: str = "geometric"
    tau: float = 20.0  # training-gate threshold on the simulated MAE
    sigma_mode: "str | float" = "mean"
    seed: int = 0
    epochs: int = 40
    terms: tuple[str, ...] = ALL_TERMS
    pseudo_stages: str = "both"

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))  # hashable
        for name in ("k_max", "n_frames", "epochs"):
            require_int(getattr(self, name), name)
        require_seed(self.seed)
        require_real(self.tau, "tau")
        if not isinstance(self.sigma_mode, str):
            require_real(self.sigma_mode, "sigma_mode")
        if self.k_max < 1 or self.n_frames < 1:
            raise ValueError("k_max and n_frames must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if isinstance(self.sigma_mode, str) and self.sigma_mode != "mean":
            raise ValueError(f"sigma_mode must be 'mean' or a number, not "
                             f"{self.sigma_mode!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.pseudo_stages not in PSEUDO_STAGES:
            raise ValueError(f"unknown pseudo_stages {self.pseudo_stages!r}")
        for i, term in enumerate(self.terms):
            if term not in ALL_TERMS:
                raise ValueError(f"unknown score term {term!r}")
            # a term given twice multiplies the same factors as once
            if term in self.terms[:i]:
                raise ValueError(f"repeated score term {term!r}")


@dataclass(frozen=True)
class SelectionState:
    """Ordered selected-view group on scene, compared as to_dict records."""

    selected: tuple[str, ...]
    scene: Scene = field(compare=False, repr=False)
    history: tuple[tuple[str, ScoreBreakdown | None], ...] = ()
    non_converged: bool = False

    def __post_init__(self):
        # hashable, and equal to the state built from tuples
        object.__setattr__(self, "selected", tuple(self.selected))
        object.__setattr__(self, "history", tuple(map(tuple, self.history)))
        known = set(self.scene.camera_ids)
        missing = [cid for cid in self.selected if cid not in known]
        if missing:
            raise ValueError(f"selection names unknown cameras: {missing}")
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected views must be unique")
        require_kind(self.non_converged, bool, "non_converged")

    @cached_property
    def combined_mask(self) -> np.ndarray:
        """scene.visibility_of(selected), computed on first read; read-only."""
        mask = self.scene.visibility_of(self.selected)
        mask.setflags(write=False)
        return mask

    def to_dict(self) -> dict:
        return {"selected": list(self.selected),
                "non_converged": self.non_converged,
                "history": [
                    {"added_id": cid,
                     "score": None if sb is None else asdict(sb)}
                    for cid, sb in self.history]}

    @classmethod
    def from_dict(cls, data, scene: Scene) -> "SelectionState":
        """The state that a selection artifact (to_dict's keys plus any
        others) records on scene, without its history: `selected` must
        name the scene's cameras, `non_converged`, if given, must be true
        or false, `spec`, if given, a JSON object and `spec_hash`, if
        given, a string."""
        data = require_object(data, "selection artifact", ("selected",))
        require_kind(data.get("spec", {}), dict, "selection artifact 'spec'")
        require_kind(data.get("spec_hash", ""), str,
                     "selection artifact 'spec_hash'")
        selected = require_kind(data["selected"], list,
                                "selection artifact 'selected'")
        for cid in selected:
            require_kind(cid, str, "selection artifact 'selected' entry")
        return cls(selected=tuple(selected), scene=scene,
                   non_converged=data.get("non_converged", False))


@dataclass(frozen=True)
class LabeledDataset:
    """The labeled budget: every selected view (the run's state.selected)
    on every selected frame."""

    frame_ids: tuple[int, ...]


def _initial_state(scene: Scene, first_id: str) -> SelectionState:
    return SelectionState(selected=(first_id,), scene=scene,
                          history=((first_id, None),))


def _largest_fov_camera(scene: Scene) -> str:
    return min(scene.camera_ids,
               key=lambda cid: (-scene.footprint(cid).area_cells, cid))


def _cosine(u: np.ndarray, nu: float, v: np.ndarray, nv: float) -> float:
    """Cosine similarity of u and v, given their norms; an all-zero vector
    is treated as maximally similar so undefined candidates fall back to
    frame-id order."""
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return float(u @ v) / (nu * nv)


def select_frames(scene: Scene, drawn: list[tuple[CrowdFrame, float]],
                  f: int, kernel_sigma_cells: float) -> list[int]:
    """Pick f frame ids: first the frame with the largest predicted count in
    the widest camera's footprint, then greedily the frame least similar
    (by max cosine over already-selected) in that camera's density features.

    drawn holds the predictor's draws (CrowdFrame, scale), one per frame
    under its own id (the oracle's is (frame, 1.0)); a frame's features are
    the drawn frame's footprint_density under that camera, times the scale.
    The drawn frame holds them, so a frame drawn again (run_ivs on the same
    trace, or a noise-free run_avs draw, which is the frame itself) is not
    rasterized again. Each frame pair is compared once.
    """
    if require_int(f, "f") < 1:
        raise ValueError(f"need at least one frame to select, got {f}")
    if f > len(drawn):
        raise ValueError(f"cannot select {f} frames from {len(drawn)}")
    v_max = _largest_fov_camera(scene)
    features = {}
    for noisy, scale in drawn:
        if noisy.frame_id in features:
            raise ValueError(f"repeated frame id {noisy.frame_id}")
        held = noisy.footprint_density(scene, v_max, kernel_sigma_cells)
        # x * 1.0 is x, so the held array serves a draw at scale 1.0
        features[noisy.frame_id] = held if scale == 1.0 else held * scale
    norms = {fid: np.linalg.norm(u) for fid, u in features.items()}
    chosen = [min(features, key=lambda fid: (-features[fid].sum(), fid))]
    # each unchosen frame's largest cosine to the chosen ones
    nearest = {fid: -np.inf for fid in features if fid != chosen[0]}
    while len(chosen) < f:
        last = chosen[-1]
        for fid in nearest:
            nearest[fid] = max(nearest[fid],
                               _cosine(features[fid], norms[fid],
                                       features[last], norms[last]))
        chosen.append(min(nearest, key=lambda fid: (nearest[fid], fid)))
        del nearest[chosen[-1]]
    return chosen


def select_first_view(scene: Scene, drawn: list[tuple[CrowdFrame, float]],
                      kernel_sigma_cells: float) -> str:
    """First view by predicted crowd count summed over the selected frames.

    drawn holds their draws, as select_frames', in their order. Each draw is
    tabulated (kernel_table) once; a camera's prediction accumulates the
    drawn people whose cell it sees under its footprint, times the scale.
    """
    if not drawn:
        raise ValueError("no frames to select the first view by")
    totals = {cid: [] for cid in scene.camera_ids}
    for noisy, scale in drawn:
        table = kernel_table(noisy.positions, scene.grid, kernel_sigma_cells)
        for cid, counts in totals.items():
            fov = scene.footprint(cid).mask
            values = accumulate_density(table, scene.grid,
                                        noisy.seen(fov, scene.grid), fov)
            counts.append(float((values * scale).sum()))
    return min(scene.camera_ids, key=lambda cid: (-sum(totals[cid]), cid))


def add_view(state: SelectionState, score_fn) -> SelectionState:
    """One round of greedy view addition: append the unselected camera of
    state.scene that scores best with the current group (ties by camera id).

    score_fn(group_ids: list[str], candidate_ids: list[str])
    -> (index, ScoreBreakdown), the first maximum over the candidates, in
    their order, of the score of group + [c]; called once per round with
    the candidates sorted by id.
    """
    unselected = sorted(set(state.scene.camera_ids) - set(state.selected))
    if not unselected:
        raise ValueError("no unselected cameras remain")
    index, best_score = score_fn(list(state.selected), unselected)
    best_id = unselected[index]
    return replace(state, selected=state.selected + (best_id,),
                   history=state.history + ((best_id, best_score),))


def mean_prediction(predictions: list[DensityMap],
                    shape: tuple[int, int]) -> DensityMap:
    """The training gate's per-frame predictions, averaged in frame order
    into the single map consumed by the active scores."""
    acc = np.zeros(shape)
    for pred in predictions:
        acc += pred.values
    return DensityMap(values=acc / max(len(predictions), 1))


def view_person_credit(scene: Scene, frames: list[CrowdFrame],
                       camera_id: str) -> float:
    """Mean fraction of a frame's people visible in one camera's footprint.

    Labeling a view-frame supervises only the people it shows, so training
    credit is weighted by covered-person fraction rather than counted as a
    flat image.
    """
    fov = scene.footprint(camera_id).mask
    fracs = []
    for frame in frames:
        if len(frame.positions):
            seen = int(np.count_nonzero(frame.seen(fov, scene.grid)))
            fracs.append(seen / len(frame.positions))
    return float(np.mean(fracs)) if fracs else 0.0


def _camera_credit(scene: Scene, frames: list[CrowdFrame]
                   ) -> dict[str, float]:
    """view_person_credit of each camera of the scene, in roster order;
    fixed for a run's frames."""
    return {cid: view_person_credit(scene, frames, cid)
            for cid in scene.camera_ids}


def _pseudo_views(stage: str, k: int) -> int:
    """The unselected views in a pair of stage on k selected views: the
    group plus 1 ("viewsel"), or one selected plus k - 1 ("modeltrain")."""
    if stage not in ("viewsel", "modeltrain"):
        raise ValueError(f"unknown pseudo-label stage {stage!r}")
    return 1 if stage == "viewsel" else k - 1


def _epoch_credit(camera_credit: dict[str, float], f: int,
                  selected: tuple[str, ...], config: SelectionConfig,
                  stage: str) -> float:
    """Per-epoch calibration credit in effective view-frames over f frames:
    labeled views weighted by person coverage (camera_credit, from
    _camera_credit), plus fractional pseudo-label credit from the
    unselected views that a pair of stage mixes in (_pseudo_views) when
    config.pseudo_stages enables it."""
    credit = f * sum(camera_credit[cid] for cid in selected)
    unselected = [cid for cid in camera_credit if cid not in selected]
    if unselected and config.pseudo_stages in (stage, "both"):
        mean_unsel = float(np.mean([camera_credit[cid] for cid in unselected]))
        n_pseudo_views = float(_pseudo_views(stage, len(selected)))
        credit += PSEUDO_CREDIT * f * n_pseudo_views * mean_unsel
    return credit


@dataclass(frozen=True)
class PseudoPair:
    input_view_ids: tuple[str, ...]
    gt_density: DensityMap
    loss_mask: np.ndarray
    stage: str

    def __post_init__(self):
        self.loss_mask.setflags(write=False)
        if (self.gt_density.values[~self.loss_mask] != 0.0).any():
            raise ValueError("gt_density must be zero outside loss_mask")


def make_pseudo_pair(state: SelectionState, frame: CrowdFrame,
                     rng: np.random.Generator, stage: str,
                     kernel_sigma_cells: float = 1.0) -> PseudoPair:
    """A pair of stage on state.scene: the group ("viewsel") or one random
    selected view ("modeltrain"), then _pseudo_views(stage, k) random
    unselected views. Its loss mask is where the group and its inputs both
    see; its GT is the group's oracle prediction, zeroed outside it."""
    k, scene = len(state.selected), state.scene
    n_pseudo = _pseudo_views(stage, k)
    unselected = sorted(set(scene.camera_ids) - set(state.selected))
    if len(unselected) < n_pseudo:
        raise ValueError(f"need {n_pseudo} unselected cameras, have "
                         f"{len(unselected)}")
    kept = (state.selected if stage == "viewsel"
            else (state.selected[int(rng.integers(k))],))
    inputs = kept + tuple(unselected[i] for i in rng.choice(
        len(unselected), size=n_pseudo, replace=False))
    loss_mask = state.combined_mask & scene.visibility_of(inputs)
    gt = oracle_predict(frame, state.combined_mask, scene, kernel_sigma_cells)
    return PseudoPair(input_view_ids=inputs, loss_mask=loss_mask,
                      gt_density=DensityMap(values=np.where(
                          loss_mask, gt.values, 0.0)), stage=stage)


def check_run(scene: Scene, trace: list[CrowdFrame],
              config: SelectionConfig) -> None:
    """Refuse, before any draw, a run that the scene or trace cannot
    supply: more views than cameras, more frames than the trace has, a
    trace that check_trace refuses on the scene's grid, or one with no
    person in any frame, which gives the views nothing to select for."""
    if config.k_max > len(scene.cameras):
        raise ValueError(f"cannot select {config.k_max} views from "
                         f"{len(scene.cameras)} cameras")
    if config.n_frames > len(trace):
        raise ValueError(f"cannot select {config.n_frames} frames from "
                         f"{len(trace)}")
    check_trace(trace, scene.grid)
    if not any(len(frame.positions) for frame in trace):
        raise ValueError("no persons in any frame")


def run_ivs(scene: Scene, trace: list[CrowdFrame], config: SelectionConfig,
            predictor: PredictorConfig | None = None
            ) -> tuple[SelectionState, LabeledDataset]:
    """Independent pipeline: geometry-only greedy selection, then labeling."""
    if config.strategy != "geometric":
        raise ValueError("run_ivs requires the geometric strategy")
    check_run(scene, trace, config)
    sigma = (predictor or PredictorConfig()).kernel_sigma_cells
    frame_ids = select_frames(scene, [(frame, 1.0) for frame in trace],
                              config.n_frames, sigma)
    state = _initial_state(scene, _largest_fov_camera(scene))
    # one round_scorer carries its round across the run's add_view calls
    score_fn = round_scorer(scene, config.strategy, None, config.sigma_mode,
                            config.terms)
    while len(state.selected) < config.k_max:
        state = add_view(state, score_fn)
    return state, LabeledDataset(tuple(frame_ids))


def run_avs(scene: Scene, trace: list[CrowdFrame], config: SelectionConfig,
            predictor: PredictorConfig
            ) -> tuple[SelectionState, LabeledDataset, PredictorConfig]:
    """Active loop: interleave simulated training with score-driven view
    addition, gated by the training metric passing tau.

    Each epoch credits the predictor with the currently labeled view-frames
    (plus fractional pseudo-label credit when enabled); a view is added when
    the simulated MAE drops below tau and the budget K is not yet reached.
    Non-convergence within the epoch budget sets the non_converged flag.
    """
    if config.strategy not in ("mask", "density"):
        raise ValueError("run_avs requires the mask or density strategy")
    check_run(scene, trace, config)

    # a draw depends only on the seed, the frame and the calibration, so
    # frame and first-view selection share one draw of each trace frame
    drawn = {frame.frame_id: noisy_draw(frame, predictor) for frame in trace}
    sigma = predictor.kernel_sigma_cells
    frame_ids = select_frames(scene, list(drawn.values()), config.n_frames,
                              sigma)
    by_id = {frame.frame_id: frame for frame in trace}
    frames = [by_id[fid] for fid in frame_ids]
    # in the chosen order: summing the totals in another may flip a near-tie
    first = select_first_view(scene, [drawn[fid] for fid in frame_ids],
                              sigma)
    state = _initial_state(scene, first)
    camera_credit = _camera_credit(scene, frames)

    # the training GT counts change only when a view is added
    def covered_counts(mask):
        return [int(np.count_nonzero(frame.seen(mask, scene.grid)))
                for frame in frames]
    covered = covered_counts(state.combined_mask)
    f = len(frames)

    active_epochs = 0
    while (len(state.selected) < config.k_max
           and active_epochs < config.epochs):
        active_epochs += 1
        credit = _epoch_credit(camera_credit, f, state.selected, config,
                               "viewsel")
        predictor = calibrate(predictor, credit)
        preds = [noisy_predict(frame, state.combined_mask, scene, predictor,
                               selected_ids=list(state.selected))
                 for frame in frames]
        if training_mae(preds, covered) <= config.tau:
            m_avg = mean_prediction(preds, scene.grid.shape)
            state = add_view(state, round_scorer(
                scene, config.strategy, m_avg, config.sigma_mode,
                config.terms))
            covered = covered_counts(state.combined_mask)
    if len(state.selected) < config.k_max:
        state = replace(state, non_converged=True)
    # the epochs left once the budget is reached train on the labeled views
    # with the training metric gating nothing, and the active pipeline then
    # ends with a full training pass on them
    credit = _epoch_credit(camera_credit, f, state.selected, config,
                           "modeltrain")
    predictor = calibrate(predictor, credit, 2 * config.epochs - active_epochs)
    return state, LabeledDataset(tuple(frame_ids)), predictor


def train_after_selection(scene: Scene, frames: list[CrowdFrame],
                          state: SelectionState, config: SelectionConfig,
                          predictor: PredictorConfig
                          ) -> PredictorConfig:
    """Simulated post-selection training for the independent and random
    pipelines on state.scene (scene must equal it): repeated calibration on
    the labeled budget, with pseudo-label credit when modeltrain is on."""
    if scene != state.scene:
        raise ValueError("scene is not the selection state's scene")
    credit = _epoch_credit(_camera_credit(state.scene, frames), len(frames),
                           state.selected, config, "modeltrain")
    return calibrate(predictor, credit, config.epochs)


def random_select(scene: Scene, k: int, seed: int) -> SelectionState:
    """Uniform random baseline: k cameras (1..all) drawn at once by seed."""
    if not 1 <= require_int(k, "k") <= len(scene.cameras):
        raise ValueError(f"cannot select {k} views from "
                         f"{len(scene.cameras)} cameras")
    rng = np.random.default_rng(require_seed(seed))
    chosen = [str(c) for c in rng.choice(sorted(scene.camera_ids), size=k,
                                         replace=False)]
    return SelectionState(selected=tuple(chosen), scene=scene,
                          history=tuple((cid, None) for cid in chosen))


def run_selection(scene: Scene, trace: list[CrowdFrame],
                  config: SelectionConfig, predictor: PredictorConfig
                  ) -> tuple[SelectionState, PredictorConfig]:
    """The run of config.strategy, refused once by check_run before any
    draw: its final state and trained predictor. A random or geometric
    selection then trains on the first n_frames or its selected frames."""
    if config.strategy == "random":
        # run_ivs and run_avs check their own runs
        check_run(scene, trace, config)
        state = random_select(scene, config.k_max, seed=config.seed)
        frames = trace[:config.n_frames]
    elif config.strategy == "geometric":
        state, dataset = run_ivs(scene, trace, config, predictor)
        frames = [f for f in trace if f.frame_id in dataset.frame_ids]
    else:
        state, _, predictor = run_avs(scene, trace, config, predictor)
        return state, predictor
    return state, train_after_selection(scene, frames, state, config,
                                        predictor)
