"""Pseudo-supervision pairs mixing selected and unselected views.

This module is the contract that a pseudo-label pair must meet; the
selection pipelines do not build pairs. They model pseudo-label
supervision as fractional view-frame credit (`selection._epoch_credit`).

Two kinds of pair exist: view-selection-stage pairs (selected group plus
one random unselected view, supervised inside the selected group's FOV
union) and model-training-stage pairs (one selected plus K-1 unselected
views, supervised inside the intersection of the selected union and the
pseudo inputs' union). Either pair's ground truth is the oracle
prediction under the selected group (predictor.oracle_predict), zeroed
outside its loss mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .crowd import CrowdFrame, DensityMap
from .predictor import oracle_predict
from .selection import SelectionState

STAGE_VIEWSEL = "viewsel"
STAGE_MODELTRAIN = "modeltrain"


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


def make_viewsel_pair(state: SelectionState, frame: CrowdFrame,
                      rng: np.random.Generator,
                      kernel_sigma_cells: float = 1.0) -> PseudoPair:
    """Selected group plus one random unselected view of state.scene; GT
    is the group's oracle prediction, whose mask is the group's FOV union."""
    unselected = sorted(set(state.scene.camera_ids) - set(state.selected))
    if not unselected:
        raise ValueError("no unselected cameras available")
    extra = unselected[int(rng.integers(len(unselected)))]
    gt = oracle_predict(frame, state.combined_mask, state.scene,
                        kernel_sigma_cells)
    return PseudoPair(input_view_ids=tuple(state.selected) + (extra,),
                      gt_density=gt, loss_mask=state.combined_mask,
                      stage=STAGE_VIEWSEL)


def make_modeltrain_pair(state: SelectionState, frame: CrowdFrame,
                         rng: np.random.Generator,
                         kernel_sigma_cells: float = 1.0) -> PseudoPair:
    """One random selected view plus K-1 random unselected views of
    state.scene; GT is the K-selected-view oracle prediction, zeroed outside
    the intersection of the selected and the pseudo inputs' FOV unions."""
    k, scene = len(state.selected), state.scene
    unselected = sorted(set(scene.camera_ids) - set(state.selected))
    if len(unselected) < k - 1:
        raise ValueError(f"need {k - 1} unselected cameras, have {len(unselected)}")
    kept = state.selected[int(rng.integers(k))]
    picks = [unselected[i]
             for i in rng.choice(len(unselected), size=k - 1, replace=False)]
    inputs = (kept,) + tuple(picks)
    pseudo_union = scene.visibility_of(list(inputs))
    loss_mask = state.combined_mask & pseudo_union
    # the loss mask lies inside the selected union, so every cell it keeps
    # holds the prediction's bits
    gt = oracle_predict(frame, state.combined_mask, scene, kernel_sigma_cells)
    gt = DensityMap(values=np.where(loss_mask, gt.values, 0.0))
    return PseudoPair(input_view_ids=inputs, gt_density=gt,
                      loss_mask=loss_mask, stage=STAGE_MODELTRAIN)
