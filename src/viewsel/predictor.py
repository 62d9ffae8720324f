"""Pluggable stand-in for the downstream counting/localization network.

The oracle variant returns the exact density of people visible under the
selected views. The noisy variant degrades the oracle with person misses,
position jitter, and count scale noise, all attenuated by a calibration
quality that rises with training exposure. Calibration replaces neural
training with an exponential learning curve, and `training_mae`, the
predictor's count error on the labeled frames, stands in for the training
metric, so the active selection loop's train-then-add-view gating stays
executable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .crowd import CrowdFrame, DensityMap, rasterize_density, visible_persons
from .geometry import GroundGrid, Scene, floored_distance, require_finite


def _require_numbers(values: dict, what: str) -> None:
    """Raise ValueError unless every value is a real number; a bool, a
    string or None is not one."""
    for name, v in values.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{what} {name} must be a number, not "
                             f"{type(v).__name__}")


def _require_object(d, what: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, not "
                         f"{type(d).__name__}")


@dataclass(frozen=True)
class CalibrationState:
    labeled_view_frames: float = 0.0
    quality: float = 0.0

    def __post_init__(self):
        _require_numbers({"labeled_view_frames": self.labeled_view_frames,
                          "quality": self.quality}, "calibration")
        require_finite((self.labeled_view_frames, self.quality),
                       "calibration labeled_view_frames and quality")
        if self.labeled_view_frames < 0:
            raise ValueError("labeled_view_frames must be >= 0")
        if not (0.0 <= self.quality <= 1.0):
            raise ValueError("quality must be in [0, 1]")

    def to_dict(self) -> dict:
        return {"labeled_view_frames": self.labeled_view_frames,
                "quality": self.quality}

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationState":
        _require_object(d, "calibration")
        return cls(labeled_view_frames=d["labeled_view_frames"],
                   quality=d["quality"])


@dataclass(frozen=True)
class PredictorConfig:
    miss_rate: float = 0.0
    position_jitter_m: float = 0.0
    count_noise_rel: float = 0.0
    kernel_sigma_cells: float = 1.0
    seed: int = 0
    q_scale: float = 200.0
    distance_falloff_m: float = 40.0
    crowding_half: float = 1.0
    calibration: CalibrationState = field(default_factory=CalibrationState)

    def __post_init__(self):
        _require_numbers({f.name: getattr(self, f.name) for f in fields(self)
                          if f.name not in ("seed", "calibration")},
                         "predictor")
        if isinstance(self.seed, bool) \
                or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"predictor seed must be an integer, not "
                             f"{self.seed!r}")
        if not (0.0 <= self.miss_rate <= 1.0):
            raise ValueError("miss_rate must be in [0, 1]")
        require_finite((self.position_jitter_m, self.count_noise_rel,
                        self.kernel_sigma_cells, self.q_scale,
                        self.distance_falloff_m, self.crowding_half),
                       "predictor noise and scale parameters")
        if self.position_jitter_m < 0 or self.count_noise_rel < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        if self.kernel_sigma_cells <= 0 or self.q_scale <= 0:
            raise ValueError("kernel_sigma_cells and q_scale must be positive")
        if self.distance_falloff_m <= 0 or self.crowding_half <= 0:
            raise ValueError("distance_falloff_m and crowding_half must be "
                             "positive")

    def to_dict(self) -> dict:
        return {"miss_rate": self.miss_rate,
                "position_jitter_m": self.position_jitter_m,
                "count_noise_rel": self.count_noise_rel,
                "kernel_sigma_cells": self.kernel_sigma_cells,
                "seed": self.seed, "q_scale": self.q_scale,
                "distance_falloff_m": self.distance_falloff_m,
                "crowding_half": self.crowding_half,
                "calibration": self.calibration.to_dict()}

    @classmethod
    def from_dict(cls, d: dict) -> "PredictorConfig":
        _require_object(d, "predictor config")
        d = dict(d)
        cal = CalibrationState.from_dict(d.pop("calibration"))
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown predictor config keys: {unknown}")
        return cls(calibration=cal, **d)


def oracle_predict(frame: CrowdFrame, selected_visibility: np.ndarray,
                   scene: Scene, kernel_sigma_cells: float = 1.0) -> DensityMap:
    """Ideal model output: exact density of the people the selected views see."""
    return rasterize_density(
        visible_persons(frame, selected_visibility, scene.grid), scene.grid,
        kernel_sigma_cells, mask=selected_visibility)


def crowding_factor(frame: CrowdFrame, grid: GroundGrid,
                    config: PredictorConfig) -> np.ndarray:
    """Each person's occlusion factor rho/(rho + crowding_half), rho being
    the frame's unmasked density at the person's cell, as a read-only array.

    It depends only on the positions, the grid, kernel_sigma_cells and
    crowding_half, so a caller predicting a frame many times (calibration
    alone changing between calls) can compute it once."""
    rows, cols = grid.world_to_cell(*frame.positions.T)
    local = rasterize_density(frame, grid,
                              config.kernel_sigma_cells).values[rows, cols]
    crowding = local / (local + config.crowding_half)
    crowding.setflags(write=False)
    return crowding


def noisy_predict(frame: CrowdFrame, selected_visibility: np.ndarray,
                  scene: Scene, config: PredictorConfig,
                  selected_ids: list[str] | None = None,
                  crowding: np.ndarray | None = None) -> DensityMap:
    """Oracle prediction degraded by calibration-dependent noise.

    People are dropped with probability miss_rate*(1-quality), jittered by a
    Gaussian of sigma position_jitter_m*(1-quality), and the total mass is
    scaled by a uniform factor within 1 +/- count_noise_rel*(1-quality).
    When the selected camera ids are supplied, each person's miss probability
    is reshaped by an occlusion factor rho/(rho + crowding_half), rho being
    the local crowd density at the person, and attenuated by
    1/(1 + distance_falloff_m * s), where s sums the inverse distances to the
    selected cameras whose footprints contain the person: people in dense
    clusters are missed unless watched by enough close views. `crowding`,
    one factor per person, is crowding_factor(frame, scene.grid, config),
    computed here when not given.
    Deterministic given (seed, frame_id) plus the visibility and camera set.
    """
    if crowding is not None and len(crowding) != len(frame.positions):
        raise ValueError(f"crowding has {len(crowding)} entries for "
                         f"{len(frame.positions)} people")
    q = config.calibration.quality
    resid = 1.0 - q
    if (config.miss_rate * resid == 0.0
            and config.position_jitter_m * resid == 0.0
            and config.count_noise_rel * resid == 0.0):
        return oracle_predict(frame, selected_visibility, scene,
                              config.kernel_sigma_cells)
    rng = np.random.default_rng([config.seed, frame.frame_id])
    pos = frame.positions
    n = len(pos)
    miss_p = np.full(n, config.miss_rate * resid)
    if selected_ids and n:
        rows, cols = scene.grid.world_to_cell(pos[:, 0], pos[:, 1])
        # occlusion: misses concentrate where the crowd is dense
        if crowding is None:
            crowding = crowding_factor(frame, scene.grid, config)
        # observation: each covering view contributes inverse-distance signal
        strength = np.zeros(n)
        for cid in selected_ids:
            covered = scene.footprint(cid).mask[rows, cols]
            d = floored_distance(pos[:, 0], pos[:, 1],
                                 scene.camera(cid).ground_position,
                                 scene.grid)
            strength += covered / d
        miss_p *= crowding / (1.0 + config.distance_falloff_m * strength)
    keep = rng.random(n) >= miss_p
    jitter = rng.normal(0.0, 1.0, size=(n, 2)) * config.position_jitter_m * resid
    scale = 1.0 + config.count_noise_rel * resid * rng.uniform(-1.0, 1.0)
    scale = max(scale, 0.0)
    noisy = CrowdFrame(frame_id=frame.frame_id,
                       positions=pos[keep] + jitter[keep])
    dm = rasterize_density(
        visible_persons(noisy, selected_visibility, scene.grid), scene.grid,
        config.kernel_sigma_cells, mask=selected_visibility)
    return DensityMap(values=dm.values * scale)


def calibrate(config: PredictorConfig, newly_labeled_view_frames: float,
              epochs: int = 1) -> PredictorConfig:
    """Credit training exposure and update quality on the learning curve:
    quality = 1 - exp(-labeled_view_frames / q_scale).

    The credit is added `epochs` times, one float addition after another,
    so the result equals that many successive one-epoch calls; 0 epochs
    returns config itself."""
    if newly_labeled_view_frames < 0:
        raise ValueError("newly_labeled_view_frames must be >= 0")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if epochs == 0:
        return config
    labeled = config.calibration.labeled_view_frames
    for _ in range(epochs):
        labeled += newly_labeled_view_frames
    quality = 1.0 - math.exp(-labeled / config.q_scale)
    return replace(config,
                   calibration=CalibrationState(labeled_view_frames=labeled,
                                                quality=quality))


def predict_frames(scene: Scene, frames: list[CrowdFrame],
                   visibility: np.ndarray, config: PredictorConfig,
                   selected_ids: list[str],
                   crowding: list[np.ndarray]) -> list[DensityMap]:
    """noisy_predict of each frame under one visibility and camera set,
    given each frame's crowding_factor."""
    return [noisy_predict(frame, visibility, scene, config,
                          selected_ids=selected_ids, crowding=c)
            for frame, c in zip(frames, crowding, strict=True)]


def training_mae(scene: Scene, frames: list[CrowdFrame],
                 visibility: np.ndarray, predictions: list[DensityMap]) -> float:
    """The simulated training metric: the MAE of the counts predicted for
    the given frames (predict_frames) against the training (selected-view)
    GT counts, i.e. against the people the visibility actually covers."""
    if not frames:
        raise ValueError("frames must be nonempty")
    errors = []
    for frame, pred in zip(frames, predictions, strict=True):
        covered = len(visible_persons(frame, visibility, scene.grid).positions)
        errors.append(abs(pred.total - covered))
    return float(np.mean(errors))
