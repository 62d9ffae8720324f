import importlib
import math
from dataclasses import asdict

import numpy as np
import pytest

from viewsel import (CameraPose, CrowdFrame, GroundGrid, PredictorConfig,
                     Scene, counting_metrics, cover_rate, generate_crowd_trace,
                     localization_metrics, noisy_predict, random_select)
from viewsel.crowd import trace_from_csv, trace_to_csv
from viewsel.evaluate import evaluate
from viewsel.selection import SelectionState
from viewsel.synth import generate_scene

from reference import (ref_extract_peaks, ref_match_points_linalg,
                       ref_trace_from_csv)

evaluate_module = importlib.import_module("viewsel.evaluate")


def test_the_package_attribute_evaluate_is_the_module():
    # the package does not re-export the function under its module's name
    import viewsel
    assert importlib.import_module("viewsel.evaluate") is viewsel.evaluate
    assert viewsel.evaluate.evaluate is evaluate


def _full_state(scene):
    return SelectionState(selected=tuple(scene.camera_ids), scene=scene)


def test_oracle_full_coverage_near_zero_mae(small_grid, nadir_camera):
    # the nadir camera's footprint is the whole grid
    scene = Scene(small_grid, [nadir_camera])
    assert scene.footprint("nadir").mask.all()
    trace = generate_crowd_trace(scene.grid, 5, (20, 40), 0.6, seed=3)
    report = evaluate(scene, trace, _full_state(scene), PredictorConfig())
    assert report.counting.mae <= 0.5
    assert report.cover_rate == 1.0


def test_empty_visibility_mae_is_mean_count(small_grid):
    # a camera off the grid, looking away from it, sees no cell
    away = CameraPose(id="away", position_3d=(-20.0, -20.0, 4.0),
                      yaw=math.pi * 1.25, pitch=-0.4, horizontal_fov_rad=1.2,
                      vertical_fov_rad=1.0, max_range_m=5.0)
    scene = Scene(small_grid, [away])
    trace = generate_crowd_trace(scene.grid, 5, (20, 40), 0.6, seed=3)
    state = _full_state(scene)
    assert not state.combined_mask.any()
    report = evaluate(scene, trace, state, PredictorConfig())
    mean_count = np.mean([len(f.positions) for f in trace])
    assert report.counting.mae == pytest.approx(mean_count)
    assert report.cover_rate == 0.0
    assert report.localization.tp == 0


def test_partial_coverage_metrics_compose(demo_scene):
    trace = generate_crowd_trace(demo_scene.grid, 5, (30, 50), 0.7, seed=4)
    state = random_select(demo_scene, 3, seed=0)
    report = evaluate(demo_scene, trace, state, PredictorConfig())
    assert 0.0 < report.cover_rate <= 1.0
    # with an oracle predictor, counting error is the uncovered fraction
    mean_count = np.mean([len(f.positions) for f in trace])
    expected = (1.0 - report.cover_rate) * mean_count
    assert report.counting.mae == pytest.approx(expected, abs=3.0)
    assert 0.0 <= report.localization.f1 <= 1.0


def test_evaluate_deterministic(demo_scene):
    trace = generate_crowd_trace(demo_scene.grid, 4, (20, 40), 0.7, seed=5)
    state = random_select(demo_scene, 2, seed=1)
    pred = PredictorConfig(miss_rate=0.4, position_jitter_m=1.0,
                           count_noise_rel=0.2, seed=2)
    a = evaluate(demo_scene, trace, state, pred)
    b = evaluate(demo_scene, trace, state, pred)
    assert asdict(a) == asdict(b)


def _reference_report(scene, trace, state, predictor, threshold_m,
                      min_value, radius):
    """evaluate's report with the loop peak extraction and the
    np.linalg.norm matching of tests/reference.py."""
    pred_counts, gt_counts, matches = [], [], []
    fp_total = fn_total = gt_total = 0
    for frame in trace:
        pred = noisy_predict(frame, state.combined_mask, scene, predictor,
                             selected_ids=list(state.selected))
        pred_counts.append(pred.total)
        gt = [tuple(p) for p in frame.positions.tolist()]
        gt_counts.append(float(len(gt)))
        peaks = ref_extract_peaks(pred, scene.grid, min_value, radius)
        m, fp, fn = ref_match_points_linalg(peaks, gt, threshold_m)
        matches.extend(m)
        fp_total += len(fp)
        fn_total += len(fn)
        gt_total += len(gt)
    cr = cover_rate(trace, state.combined_mask, scene.grid)
    return {"counting": asdict(counting_metrics(pred_counts, gt_counts,
                                                cover_rate=cr)),
            "localization": asdict(localization_metrics(
                matches, fp_total, fn_total, gt_total, threshold_m)),
            "cover_rate": cr}


# evaluate's peaks are local maxima above 0.05 with a 2-cell NMS radius
@pytest.mark.parametrize("threshold_m, min_value, radius",
                         [(0.5, 0.05, 2.0), (1.0, 0.05, 2.0)])
def test_evaluate_equals_reference_report(tmp_path, threshold_m, min_value,
                                          radius):
    grid = GroundGrid(height_cells=70, width_cells=70, cell_size_m=0.5)
    scene = generate_scene(10, grid, seed=11)
    path = tmp_path / "trace.csv"
    trace_to_csv(generate_crowd_trace(grid, 6, (150, 250), 0.7, seed=12),
                 path)
    state = random_select(scene, 4, seed=3)
    pred = PredictorConfig(miss_rate=0.5, position_jitter_m=0.6,
                           count_noise_rel=0.1, seed=4)
    got = asdict(evaluate(scene, trace_from_csv(path), state, pred,
                          threshold_m=threshold_m))
    want = _reference_report(scene, ref_trace_from_csv(path), state, pred,
                             threshold_m, min_value, radius)
    assert got["localization"]["tp"] > 50
    assert got == want


@pytest.mark.parametrize("kwargs", [
    {"threshold_m": math.nan}, {"threshold_m": math.inf},
    {"threshold_m": 0.0}])
def test_evaluate_checks_parameters_before_predicting(demo_scene, monkeypatch,
                                                      kwargs):
    calls = []
    monkeypatch.setattr(evaluate_module, "noisy_predict",
                        lambda *a, **k: calls.append(a))
    trace = generate_crowd_trace(demo_scene.grid, 2, (5, 10), 0.5, seed=1)
    with pytest.raises(ValueError):
        evaluate(demo_scene, trace, _full_state(demo_scene),
                 PredictorConfig(), **kwargs)
    assert calls == []


def test_evaluate_refuses_a_personless_trace_before_predicting(demo_scene,
                                                               monkeypatch):
    calls = []
    monkeypatch.setattr(evaluate_module, "noisy_predict",
                        lambda *a, **k: calls.append(a))
    trace = [CrowdFrame(frame_id=i, positions=np.empty((0, 2)))
             for i in range(4)]
    with pytest.raises(ValueError, match="^no persons in any frame$"):
        evaluate(demo_scene, trace, _full_state(demo_scene),
                 PredictorConfig())
    assert calls == []
