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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .crowd import CrowdFrame, DensityMap, accumulate_density, kernel_table
from .geometry import Scene
from .serialize import require_fields, require_int, require_real, require_seed


@dataclass(frozen=True)
class CalibrationState:
    labeled_view_frames: float = 0.0
    quality: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            require_real(getattr(self, f.name), f"calibration {f.name}")
        if self.labeled_view_frames < 0:
            raise ValueError("labeled_view_frames must be >= 0")
        if not (0.0 <= self.quality <= 1.0):
            raise ValueError("quality must be in [0, 1]")


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
        for f in fields(self):
            if f.name not in ("seed", "calibration"):
                require_real(getattr(self, f.name), f"predictor {f.name}")
        require_seed(self.seed, "predictor seed")
        if not isinstance(self.calibration, CalibrationState):
            raise ValueError(f"predictor calibration must be a "
                             f"CalibrationState, not "
                             f"{type(self.calibration).__name__}")
        if not (0.0 <= self.miss_rate <= 1.0):
            raise ValueError("miss_rate must be in [0, 1]")
        if self.position_jitter_m < 0 or self.count_noise_rel < 0:
            raise ValueError("noise magnitudes must be nonnegative")
        if self.kernel_sigma_cells <= 0 or self.q_scale <= 0:
            raise ValueError("kernel_sigma_cells and q_scale must be positive")
        if self.distance_falloff_m <= 0 or self.crowding_half <= 0:
            raise ValueError("distance_falloff_m and crowding_half must be "
                             "positive")

    @classmethod
    def from_dict(cls, d) -> "PredictorConfig":
        """The config that dataclasses.asdict wrote as d: a JSON object
        with every field and no other key, its calibration one with every
        CalibrationState field and no other key."""
        d = require_fields(d, cls, "predictor config")
        d["calibration"] = CalibrationState(**require_fields(
            d["calibration"], CalibrationState, "predictor calibration"))
        return cls(**d)


def oracle_predict(frame: CrowdFrame, selected_visibility: np.ndarray,
                   scene: Scene, kernel_sigma_cells: float = 1.0) -> DensityMap:
    """Ideal model output: exact density of the people the selected views see."""
    seen = frame.positions[frame.seen(selected_visibility, scene.grid)]
    table = kernel_table(seen, scene.grid, kernel_sigma_cells)
    return DensityMap(values=accumulate_density(table, scene.grid,
                                                mask=selected_visibility))


def noisy_draw(frame: CrowdFrame, config: PredictorConfig,
               miss_p: np.ndarray | None = None) -> tuple[CrowdFrame, float]:
    """The random part of noisy_predict, which no camera changes: the kept,
    jittered people as a frame under the same id, and the count scale.

    A person is kept when a uniform draw reaches its miss probability
    (miss_p, one per person; None: miss_rate*(1-quality) for everyone),
    jittered by a Gaussian of sigma position_jitter_m*(1-quality), and the
    scale is 1 + count_noise_rel*(1-quality)*U(-1, 1), floored at 0. With
    no noise left it is (frame, 1.0) and draws nothing. Deterministic given
    (seed, frame_id) and miss_p.
    """
    resid = 1.0 - config.calibration.quality
    if (config.miss_rate * resid == 0.0
            and config.position_jitter_m * resid == 0.0
            and config.count_noise_rel * resid == 0.0):
        return frame, 1.0
    rng = np.random.default_rng([config.seed, frame.frame_id])
    pos = frame.positions
    n = len(pos)
    keep = rng.random(n) >= (config.miss_rate * resid if miss_p is None
                             else miss_p)
    jitter = rng.normal(0.0, 1.0, size=(n, 2)) * config.position_jitter_m * resid
    scale = 1.0 + config.count_noise_rel * resid * rng.uniform(-1.0, 1.0)
    return (CrowdFrame(frame_id=frame.frame_id,
                       positions=pos[keep] + jitter[keep]), max(scale, 0.0))


def noisy_predict(frame: CrowdFrame, selected_visibility: np.ndarray,
                  scene: Scene, config: PredictorConfig,
                  selected_ids: list[str] | None = None) -> DensityMap:
    """Oracle prediction of a noisy_draw of the frame, times its scale.

    When the selected camera ids are supplied, each person's miss
    probability miss_rate*(1-quality) is reshaped by an occlusion factor
    rho/(rho + crowding_half), rho being the local crowd density at the
    person, and attenuated by 1/(1 + distance_falloff_m * s), where s sums
    the inverse distances to the selected cameras whose footprints contain
    the person: people in dense clusters are missed unless watched by
    enough close views. rho and each camera's term are the frame's own
    constants (local_density, observation), computed once per frame.
    Deterministic given (seed, frame_id) plus the visibility and camera set.
    """
    n = len(frame.positions)
    base_p = config.miss_rate * (1.0 - config.calibration.quality)
    miss_p = None
    # a zero miss probability stays zero whatever the factors
    if selected_ids and n and base_p != 0.0:
        # occlusion: misses concentrate where the crowd is dense
        rho = frame.local_density(scene.grid, config.kernel_sigma_cells)
        # observation: each covering view contributes inverse-distance signal
        strength = np.zeros(n)
        for cid in selected_ids:
            strength += frame.observation(scene, cid)
        miss_p = np.full(n, base_p)
        miss_p *= rho / (rho + config.crowding_half) \
            / (1.0 + config.distance_falloff_m * strength)
    noisy, scale = noisy_draw(frame, config, miss_p)
    dm = oracle_predict(noisy, selected_visibility, scene,
                        config.kernel_sigma_cells)
    return DensityMap(values=dm.values * scale)


def calibrate(config: PredictorConfig, newly_labeled_view_frames: float,
              epochs: int = 1) -> PredictorConfig:
    """Credit training exposure and update quality on the learning curve:
    quality = 1 - exp(-labeled_view_frames / q_scale).

    The credit is added `epochs` times, one float addition after another,
    so the result equals that many successive one-epoch calls; 0 epochs
    returns config itself."""
    if require_real(newly_labeled_view_frames,
                    "newly_labeled_view_frames") < 0:
        raise ValueError("newly_labeled_view_frames must be >= 0")
    if require_int(epochs, "epochs") < 0:
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


def training_mae(predictions: list[DensityMap], covered: list[int]) -> float:
    """The simulated training metric: the MAE of the counts predicted for
    the labeled frames (noisy_predict) against their training
    (selected-view) GT counts, the number of each frame's people that the
    visibility covers."""
    if not predictions:
        raise ValueError("predictions must be nonempty")
    return float(np.mean([abs(pred.total - n)
                          for pred, n in zip(predictions, covered,
                                             strict=True)]))
