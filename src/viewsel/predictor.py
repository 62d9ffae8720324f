"""Pluggable stand-in for the downstream counting/localization network.

The oracle variant returns the exact density of people visible under the
selected views. The noisy variant degrades the oracle with person misses,
position jitter, and count scale noise, all attenuated by a calibration
quality that rises with training exposure. Calibration replaces neural
training with an exponential learning curve so the active selection loop's
train-then-add-view gating stays executable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .crowd import (CrowdFrame, DensityMap, Person, rasterize_density,
                    visible_persons)
from .geometry import Scene, require_finite


@dataclass(frozen=True)
class CalibrationState:
    labeled_view_frames: float = 0.0
    quality: float = 0.0

    def to_dict(self) -> dict:
        return {"labeled_view_frames": self.labeled_view_frames,
                "quality": self.quality}

    @classmethod
    def from_dict(cls, d: dict) -> "CalibrationState":
        return cls(labeled_view_frames=float(d["labeled_view_frames"]),
                   quality=float(d["quality"]))


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
        d = dict(d)
        cal = CalibrationState.from_dict(d.pop("calibration"))
        return cls(calibration=cal, **{k: v for k, v in d.items()})


def oracle_predict(frame: CrowdFrame, selected_visibility: np.ndarray,
                   scene: Scene, kernel_sigma_cells: float = 1.0) -> DensityMap:
    """Ideal model output: exact density of the people the selected views see."""
    vis = visible_persons(frame, selected_visibility, scene.grid)
    return rasterize_density(CrowdFrame(frame_id=frame.frame_id, persons=vis),
                             scene.grid, kernel_sigma_cells,
                             mask=selected_visibility)


def noisy_predict(frame: CrowdFrame, selected_visibility: np.ndarray,
                  scene: Scene, config: PredictorConfig,
                  selected_ids: list[str] | None = None) -> DensityMap:
    """Oracle prediction degraded by calibration-dependent noise.

    People are dropped with probability miss_rate*(1-quality), jittered by a
    Gaussian of sigma position_jitter_m*(1-quality), and the total mass is
    scaled by a uniform factor within 1 +/- count_noise_rel*(1-quality).
    When the selected camera ids are supplied, each person's miss probability
    is reshaped by an occlusion factor rho/(rho + crowding_half), rho being
    the local crowd density at the person, and attenuated by
    1/(1 + distance_falloff_m * s), where s sums the inverse distances to the
    selected cameras whose footprints contain the person: people in dense
    clusters are missed unless watched by enough close views.
    Deterministic given (seed, frame_id) plus the visibility and camera set.
    """
    q = config.calibration.quality
    resid = 1.0 - q
    if (config.miss_rate * resid == 0.0
            and config.position_jitter_m * resid == 0.0
            and config.count_noise_rel * resid == 0.0):
        return oracle_predict(frame, selected_visibility, scene,
                              config.kernel_sigma_cells)
    rng = np.random.default_rng([config.seed, frame.frame_id])
    n = len(frame.persons)
    miss_p = np.full(n, config.miss_rate * resid)
    if selected_ids and n:
        pos = frame.positions()
        rows, cols = scene.grid.world_to_cell(pos[:, 0], pos[:, 1])
        # occlusion: misses concentrate where the crowd is dense
        local = rasterize_density(frame, scene.grid,
                                  config.kernel_sigma_cells).values[rows, cols]
        crowding = local / (local + config.crowding_half)
        # observation: each covering view contributes inverse-distance signal
        strength = np.zeros(n)
        for cid in selected_ids:
            cam = scene.camera(cid)
            covered = scene.footprint(cid).mask[rows, cols]
            d = np.maximum(np.hypot(pos[:, 0] - cam.ground_position[0],
                                    pos[:, 1] - cam.ground_position[1]),
                           scene.grid.cell_size_m / 2.0)
            strength += covered / d
        miss_p *= crowding / (1.0 + config.distance_falloff_m * strength)
    keep = rng.random(n) >= miss_p
    jitter = rng.normal(0.0, 1.0, size=(n, 2)) * config.position_jitter_m * resid
    scale = 1.0 + config.count_noise_rel * resid * rng.uniform(-1.0, 1.0)
    scale = max(scale, 0.0)
    persons = [Person(position=(p.position[0] + jitter[i, 0],
                                p.position[1] + jitter[i, 1]))
               for i, p in enumerate(frame.persons) if keep[i]]
    noisy = CrowdFrame(frame_id=frame.frame_id, persons=persons)
    vis = visible_persons(noisy, selected_visibility, scene.grid)
    dm = rasterize_density(CrowdFrame(frame_id=frame.frame_id, persons=vis),
                           scene.grid, config.kernel_sigma_cells,
                           mask=selected_visibility)
    return DensityMap(values=dm.values * scale)


def calibrate(config: PredictorConfig, newly_labeled_view_frames: float,
              scene: Scene | None = None,
              frames: list[CrowdFrame] | None = None,
              visibility: np.ndarray | None = None,
              selected_ids: list[str] | None = None
              ) -> tuple[PredictorConfig, float | None]:
    """Credit training exposure and update quality on the learning curve.

    quality = 1 - exp(-labeled_view_frames / q_scale). When scene context is
    supplied, also returns the simulated training metric: the MAE of the
    updated noisy predictor's counts against the training (selected-view)
    GT counts over the given frames, i.e. against the people the supplied
    visibility actually covers.
    """
    if newly_labeled_view_frames < 0:
        raise ValueError("newly_labeled_view_frames must be >= 0")
    labeled = config.calibration.labeled_view_frames + newly_labeled_view_frames
    quality = 1.0 - math.exp(-labeled / config.q_scale)
    updated = replace(config,
                      calibration=CalibrationState(labeled_view_frames=labeled,
                                                   quality=quality))
    metric = None
    if scene is not None and frames is not None and visibility is not None:
        errors = []
        for frame in frames:
            pred = noisy_predict(frame, visibility, scene, updated,
                                 selected_ids=selected_ids)
            covered = len(visible_persons(frame, visibility, scene.grid))
            errors.append(abs(pred.total - covered))
        metric = float(np.mean(errors)) if errors else None
    return updated, metric
