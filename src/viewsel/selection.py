"""View selection strategies: frame selection, greedy view addition, the
independent and active pipelines, random baselines, and a brute-force oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .crowd import CrowdFrame, DensityMap, cover_rate, visible_persons
from .geometry import Scene, require_finite
from .predictor import (PredictorConfig, calibrate, crowding_factor,
                        noisy_predict, oracle_predict, predict_frames,
                        training_mae)
from .scoring import (ALL_TERMS, DEFAULT_EPSILON, DEFAULT_LAMBDA,
                      ScoreBreakdown, binarize_density, score_round)

STRATEGIES = ("geometric", "mask", "density", "random")
PSEUDO_STAGES = ("none", "viewsel", "modeltrain", "both")


@dataclass(frozen=True)
class SelectionConfig:
    k_max: int = 5
    n_frames: int = 20
    strategy: str = "geometric"
    tau: float = 20.0  # training-gate threshold on the simulated MAE
    lam: float = DEFAULT_LAMBDA
    epsilon: float = DEFAULT_EPSILON
    sigma_mode: "str | float" = "mean"
    seed: int = 0
    epochs: int = 40
    terms: tuple[str, ...] = ALL_TERMS
    pseudo_stages: str = "both"
    pseudo_credit: float = 0.25

    def __post_init__(self):
        if self.k_max < 1 or self.n_frames < 1:
            raise ValueError("k_max and n_frames must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        numbers = [self.tau, self.lam, self.epsilon, self.pseudo_credit]
        if not isinstance(self.sigma_mode, str):
            numbers.append(self.sigma_mode)
        require_finite(numbers, "tau, lam, epsilon, pseudo_credit and a "
                       "numeric sigma_mode")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.pseudo_stages not in PSEUDO_STAGES:
            raise ValueError(f"unknown pseudo_stages {self.pseudo_stages!r}")

    def to_dict(self) -> dict:
        return {"k_max": self.k_max, "n_frames": self.n_frames,
                "strategy": self.strategy, "tau": self.tau, "lam": self.lam,
                "epsilon": self.epsilon, "sigma_mode": self.sigma_mode,
                "seed": self.seed, "epochs": self.epochs,
                "terms": list(self.terms),
                "pseudo_stages": self.pseudo_stages,
                "pseudo_credit": self.pseudo_credit}

    @classmethod
    def from_dict(cls, d: dict) -> "SelectionConfig":
        d = dict(d)
        d["terms"] = tuple(d.get("terms", ALL_TERMS))
        return cls(**d)


@dataclass(frozen=True)
class SelectionState:
    """Ordered selected-view group with its cached combined visibility."""

    selected: tuple[str, ...]
    combined_mask: np.ndarray
    history: tuple[tuple[str, ScoreBreakdown | None], ...] = ()
    non_converged: bool = False

    def __post_init__(self):
        self.combined_mask.setflags(write=False)
        if len(set(self.selected)) != len(self.selected):
            raise ValueError("selected views must be unique")

    def to_dict(self) -> dict:
        return {"selected": list(self.selected),
                "non_converged": self.non_converged,
                "history": [
                    {"added_id": cid,
                     "score": None if sb is None else sb.to_dict()}
                    for cid, sb in self.history]}


@dataclass(frozen=True)
class LabeledDataset:
    """The labeled budget: every selected view on every selected frame."""

    frame_ids: tuple[int, ...]
    camera_ids: tuple[str, ...]

    @property
    def budget_images(self) -> int:
        return len(self.frame_ids) * len(self.camera_ids)


def _initial_state(scene: Scene, first_id: str) -> SelectionState:
    return SelectionState(selected=(first_id,),
                          combined_mask=scene.visibility_of([first_id]),
                          history=((first_id, None),))


def _largest_fov_camera(scene: Scene) -> str:
    return min(scene.camera_ids,
               key=lambda cid: (-scene.footprint(cid).area_cells, cid))


def _cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity; an all-zero vector is treated as maximally similar
    so undefined candidates fall back to frame-id order."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return float(u @ v) / (nu * nv)


def select_frames(scene: Scene, trace: list[CrowdFrame], predict_fn,
                  f: int) -> list[int]:
    """Pick f frame ids: first the frame with the largest predicted count in
    the widest camera's footprint, then greedily the frame least similar
    (by max cosine over already-selected) in that camera's density features.

    predict_fn(frame, visibility) -> DensityMap.
    """
    return _select_frames(scene, trace, predict_fn, f)[0]


def _select_frames(scene: Scene, trace: list[CrowdFrame], predict_fn,
                   f: int) -> tuple[list[int], dict[tuple[str, int], float]]:
    """select_frames, also returning the total of each prediction it made,
    keyed by (camera id, frame id), for select_first_view to reuse."""
    if f > len(trace):
        raise ValueError(f"cannot select {f} frames from {len(trace)}")
    if not trace:
        raise ValueError("trace is empty")
    v_max = _largest_fov_camera(scene)
    fov = scene.footprint(v_max).mask
    totals = {}
    features = {}
    for frame in trace:
        pred = predict_fn(frame, fov)
        totals[v_max, frame.frame_id] = pred.total
        features[frame.frame_id] = pred.values[fov].ravel()
    ids = sorted(features)
    first = min(ids, key=lambda fid: (-features[fid].sum(), fid))
    chosen = [first]
    remaining = [fid for fid in ids if fid != first]
    while len(chosen) < f:
        best = min(remaining,
                   key=lambda fid: (max(_cosine(features[fid], features[c])
                                        for c in chosen), fid))
        chosen.append(best)
        remaining.remove(best)
    return chosen, totals


def select_first_view(scene: Scene, frames: list[CrowdFrame], predict_fn,
                      mode: str) -> str:
    """First view by footprint area ("largest_fov") or by predicted crowd
    count summed over the selected frames ("largest_predicted_count")."""
    return _select_first_view(scene, frames, predict_fn, mode, {})


def _select_first_view(scene: Scene, frames: list[CrowdFrame], predict_fn,
                       mode: str, known: dict[tuple[str, int], float]) -> str:
    """select_first_view, reusing the known prediction totals by (camera
    id, frame id) instead of predicting those frames again."""
    if mode == "largest_fov":
        return _largest_fov_camera(scene)
    if mode == "largest_predicted_count":
        def total(cid: str, frame: CrowdFrame) -> float:
            if (cid, frame.frame_id) in known:
                return known[cid, frame.frame_id]
            return predict_fn(frame, scene.footprint(cid).mask).total

        def total_count(cid: str) -> float:
            return sum(total(cid, frame) for frame in frames)
        return min(scene.camera_ids, key=lambda cid: (-total_count(cid), cid))
    raise ValueError(f"unknown first-view mode {mode!r}")


def add_view(scene: Scene, state: SelectionState,
             score_fn) -> SelectionState:
    """One round of greedy view addition: score every unselected candidate
    together with the current group, append the argmax (ties by camera id).

    score_fn(group_ids: list[str], candidate_ids: list[str])
    -> list[ScoreBreakdown], the score of group + [c] for each candidate c;
    called once per round.
    """
    unselected = sorted(set(scene.camera_ids) - set(state.selected))
    if not unselected:
        raise ValueError("no unselected cameras remain")
    scores = score_fn(list(state.selected), unselected)
    # max keeps the first of equal maxima: the lowest camera id
    best_id, best_score = max(zip(unselected, scores, strict=True),
                              key=lambda pair: pair[1].total)
    selected = state.selected + (best_id,)
    return replace(state, selected=selected,
                   combined_mask=scene.visibility_of(list(selected)),
                   history=state.history + ((best_id, best_score),))


def _score_fn(scene: Scene, config: SelectionConfig,
              prediction: DensityMap | None = None):
    """add_view's score_fn under config.strategy, which picks the scored
    region and the distance-field weight: geometric scores the group's FOV
    union with unit weight, mask the binarized prediction with unit weight,
    density the binarized prediction weighted by the prediction."""
    region = weight = None
    if config.strategy in ("mask", "density"):
        region = binarize_density(prediction, config.sigma_mode)
    if config.strategy == "density":
        weight = prediction.values
    return lambda group, candidates: score_round(
        [scene.camera(c) for c in group],
        [scene.camera(c) for c in candidates], scene, region, weight,
        config.lam, config.epsilon, config.terms, config.strategy)


def _frames_by_id(trace: list[CrowdFrame], ids: list[int]) -> list[CrowdFrame]:
    by_id = {f.frame_id: f for f in trace}
    return [by_id[i] for i in ids]


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
            seen = visible_persons(frame, fov, scene.grid).positions
            fracs.append(len(seen) / len(frame.positions))
    return float(np.mean(fracs)) if fracs else 0.0


def _camera_credit(scene: Scene, frames: list[CrowdFrame],
                   camera_ids) -> dict[str, float]:
    """view_person_credit of each camera, in the given order; fixed for a
    run's frames."""
    return {cid: view_person_credit(scene, frames, cid)
            for cid in camera_ids}


def _epoch_credit(camera_credit: dict[str, float], f: int,
                  selected: tuple[str, ...], config: SelectionConfig,
                  stage: str) -> float:
    """Per-epoch calibration credit in effective view-frames over f frames:
    labeled views weighted by person coverage (camera_credit, from
    _camera_credit), plus fractional pseudo-label credit from the
    unselected views the enabled pseudo stage mixes in."""
    credit = f * sum(camera_credit[cid] for cid in selected)
    unselected = [cid for cid in camera_credit if cid not in selected]
    if unselected and stage != "off":
        mean_unsel = float(np.mean([camera_credit[cid] for cid in unselected]))
        if stage == "viewsel":
            n_pseudo_views = 1.0  # selected group plus one unselected view
        else:
            n_pseudo_views = float(len(selected) - 1)  # 1 selected + K-1 others
        credit += config.pseudo_credit * f * n_pseudo_views * mean_unsel
    return credit


def run_ivs(scene: Scene, trace: list[CrowdFrame], config: SelectionConfig,
            predictor: PredictorConfig | None = None
            ) -> tuple[SelectionState, LabeledDataset]:
    """Independent pipeline: geometry-only greedy selection, then labeling."""
    if config.strategy != "geometric":
        raise ValueError("run_ivs requires the geometric strategy")
    predictor = predictor or PredictorConfig()
    sigma = predictor.kernel_sigma_cells

    def predict(frame, vis):
        return oracle_predict(frame, vis, scene, sigma)

    frame_ids = select_frames(scene, trace, predict, config.n_frames)
    frames = _frames_by_id(trace, frame_ids)
    first = select_first_view(scene, frames, predict, "largest_fov")
    state = _initial_state(scene, first)
    k = min(config.k_max, len(scene.cameras))
    score_fn = _score_fn(scene, config)
    while len(state.selected) < k:
        state = add_view(scene, state, score_fn)
    return state, LabeledDataset(tuple(frame_ids), state.selected)


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

    def predict(frame, vis):
        return noisy_predict(frame, vis, scene, predictor)

    frame_ids, totals = _select_frames(scene, trace, predict,
                                       config.n_frames)
    frames = _frames_by_id(trace, frame_ids)
    first = _select_first_view(scene, frames, predict,
                               "largest_predicted_count", totals)
    state = _initial_state(scene, first)
    k = min(config.k_max, len(scene.cameras))
    pseudo_viewsel = config.pseudo_stages in ("viewsel", "both")
    pseudo_modeltrain = config.pseudo_stages in ("modeltrain", "both")
    camera_credit = _camera_credit(scene, frames, scene.camera_ids)
    # a frame's crowding depends only on its people, the grid and two
    # fixed predictor fields, never on the calibration that epochs change
    crowding = [crowding_factor(frame, scene.grid, predictor)
                for frame in frames]
    f = len(frames)

    active_epochs = 0
    while len(state.selected) < k and active_epochs < config.epochs:
        active_epochs += 1
        credit = _epoch_credit(camera_credit, f, state.selected, config,
                               "viewsel" if pseudo_viewsel else "off")
        predictor = calibrate(predictor, credit)
        preds = predict_frames(scene, frames, state.combined_mask, predictor,
                               list(state.selected), crowding)
        if training_mae(scene, frames, state.combined_mask,
                        preds) <= config.tau:
            m_avg = mean_prediction(preds, scene.grid.shape)
            state = add_view(scene, state, _score_fn(scene, config, m_avg))
    if len(state.selected) < k:
        state = replace(state, non_converged=True)
    # the epochs left once the budget is reached train on the labeled views
    # with the training metric gating nothing, and the active pipeline then
    # ends with a full training pass on them
    credit = _epoch_credit(camera_credit, f, state.selected, config,
                           "modeltrain" if pseudo_modeltrain else "off")
    predictor = calibrate(predictor, credit, 2 * config.epochs - active_epochs)
    return state, LabeledDataset(tuple(frame_ids), state.selected), predictor


def train_after_selection(scene: Scene, frames: list[CrowdFrame],
                          state: SelectionState, config: SelectionConfig,
                          predictor: PredictorConfig
                          ) -> PredictorConfig:
    """Simulated post-selection training for the independent and random
    pipelines: repeated calibration on the labeled budget, with pseudo-label
    credit when the modeltrain stage is enabled."""
    pseudo = config.pseudo_stages in ("modeltrain", "both")
    # without pseudo-labels only the labeled cameras earn credit
    camera_credit = _camera_credit(
        scene, frames, scene.camera_ids if pseudo else state.selected)
    credit = _epoch_credit(camera_credit, len(frames), state.selected,
                           config, "modeltrain" if pseudo else "off")
    return calibrate(predictor, credit, config.epochs)


def random_select(scene: Scene, k: int, seed: int) -> SelectionState:
    """Uniform random baseline: a k-subset sampled at once."""
    if k > len(scene.cameras):
        raise ValueError("k exceeds camera count")
    rng = np.random.default_rng(seed)
    chosen = [str(c) for c in rng.choice(sorted(scene.camera_ids), size=k,
                                         replace=False)]
    history = tuple((cid, None) for cid in chosen)
    return SelectionState(selected=tuple(chosen),
                          combined_mask=scene.visibility_of(chosen),
                          history=history)


def brute_force_best(scene: Scene, trace: list[CrowdFrame], k: int,
                     budget: int = 50_000) -> tuple[tuple[str, ...], float]:
    """Exhaustive maximization of the cover rate over all k-subsets (ties
    by lexicographic id)."""
    n = len(scene.cameras)
    n_subsets = 1
    for i in range(k):
        n_subsets = n_subsets * (n - i) // (i + 1)
    if n_subsets > budget:
        raise ValueError(f"{n_subsets} subsets exceed budget {budget}")
    best_set, best_val = None, -np.inf
    for subset in itertools.combinations(sorted(scene.camera_ids), k):
        val = cover_rate(trace, scene.visibility_of(list(subset)), scene.grid)
        if val > best_val:
            best_set, best_val = subset, val
    return best_set, float(best_val)
