"""End-to-end evaluation against scene-level ground truth.

Whatever views were selected, evaluation always compares predictions to the
ground truth built from ALL people in the scene, never to the selected-view
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crowd import CrowdFrame, check_trace, cover_rate
from .geometry import Scene
from .metrics import (CountingReport, LocalizationReport, counting_metrics,
                      extract_peaks, localization_metrics, match_points,
                      require_match_threshold)
from .predictor import PredictorConfig, noisy_predict
from .selection import SelectionState

# a predicted person is a local maximum above PEAK_MIN_VALUE, more than
# NMS_RADIUS_CELLS cells from every peak accepted before it (extract_peaks)
PEAK_MIN_VALUE = 0.05
NMS_RADIUS_CELLS = 2.0


@dataclass(frozen=True)
class EvalReport:
    counting: CountingReport
    localization: LocalizationReport
    cover_rate: float


def evaluate(scene: Scene, trace: list[CrowdFrame], state: SelectionState,
             predictor: PredictorConfig,
             threshold_m: float = 0.5) -> EvalReport:
    """Counting and localization metrics of the predictor under the selected
    views of state.scene (scene must equal it), against scene-level GT over
    all trace frames; threshold_m, trace (check_trace) and the trace's
    persons (cover_rate) are checked first."""
    if scene != state.scene:
        raise ValueError("scene is not the selection state's scene")
    require_match_threshold(threshold_m)
    check_trace(trace, state.scene.grid)
    cr = cover_rate(trace, state.combined_mask, state.scene.grid)
    pred_counts, gt_counts = [], []
    tp_matches: list[tuple[int, int, float]] = []
    fp_total = fn_total = gt_total = 0
    for frame in trace:
        pred = noisy_predict(frame, state.combined_mask, state.scene,
                             predictor, selected_ids=list(state.selected))
        pred_counts.append(pred.total)
        gt_pts = frame.positions
        gt_counts.append(float(len(gt_pts)))
        peaks = extract_peaks(pred, state.scene.grid, PEAK_MIN_VALUE,
                              NMS_RADIUS_CELLS)
        matches, fp, fn = match_points(peaks, gt_pts, threshold_m)
        tp_matches.extend(matches)
        fp_total += len(fp)
        fn_total += len(fn)
        gt_total += len(gt_pts)
    counting = counting_metrics(pred_counts, gt_counts, cover_rate=cr)
    localization = localization_metrics(tp_matches, fp_total, fn_total,
                                        gt_total, threshold_m)
    return EvalReport(counting=counting, localization=localization,
                      cover_rate=cr)
