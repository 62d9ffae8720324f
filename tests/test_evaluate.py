import numpy as np
import pytest

from viewsel import (PredictorConfig, generate_crowd_trace, random_select)
from viewsel.evaluate import evaluate
from viewsel.selection import SelectionState


def _full_state(scene):
    sel = tuple(scene.camera_ids)
    return SelectionState(selected=sel,
                          combined_mask=np.ones(scene.grid.shape, dtype=bool))


def test_oracle_full_coverage_near_zero_mae(demo_scene):
    trace = generate_crowd_trace(demo_scene.grid, 5, (20, 40), 0.6, seed=3)
    report = evaluate(demo_scene, trace, _full_state(demo_scene),
                      PredictorConfig())
    assert report.counting.mae <= 0.5
    assert report.cover_rate == 1.0


def test_empty_visibility_mae_is_mean_count(demo_scene):
    trace = generate_crowd_trace(demo_scene.grid, 5, (20, 40), 0.6, seed=3)
    state = SelectionState(
        selected=(demo_scene.camera_ids[0],),
        combined_mask=np.zeros(demo_scene.grid.shape, dtype=bool))
    report = evaluate(demo_scene, trace, state, PredictorConfig())
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
    assert a.to_dict() == b.to_dict()
