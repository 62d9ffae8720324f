from dataclasses import replace

import numpy as np
import pytest

from viewsel import (CameraPose, GroundGrid, PredictorConfig, Scene,
                     SelectionConfig, add_view, brute_force_best, cover_rate,
                     generate_crowd_trace, oracle_predict, random_select,
                     run_avs, run_ivs, score_geometric, select_first_view,
                     select_frames)
from viewsel import geometry as geometry_module
from viewsel import predictor as predictor_module
from viewsel import scoring as scoring_module
from viewsel import selection as selection_module
from viewsel.predictor import noisy_predict
from viewsel.selection import (_initial_state, _score_fn, _select_first_view,
                               _select_frames, train_after_selection)
from viewsel.synth import generate_scene


def _trace(scene, n=8, seed=0):
    return generate_crowd_trace(scene.grid, n, (30, 60), 0.8, seed=seed)


def _geom_score_fn(scene):
    def fn(group, candidates):
        return [score_geometric([scene.camera(c) for c in group + [cid]],
                                scene)
                for cid in candidates]
    return fn


def test_add_view_picks_argmax(demo_scene):
    trace = _trace(demo_scene)
    cfg = SelectionConfig(k_max=2, n_frames=4, strategy="geometric")
    state, _ = run_ivs(demo_scene, trace, cfg)
    # recompute every candidate score for the second pick by hand
    first = state.selected[0]
    scores = {cid: score_geometric(
        [demo_scene.camera(first), demo_scene.camera(cid)],
        demo_scene).total
        for cid in demo_scene.camera_ids if cid != first}
    assert state.selected[1] == max(sorted(scores), key=lambda c: scores[c])


def test_add_view_exhausts_candidates(demo_scene):
    cfg = SelectionConfig(k_max=len(demo_scene.cameras), n_frames=3,
                          strategy="geometric")
    state, _ = run_ivs(demo_scene, _trace(demo_scene), cfg)
    assert sorted(state.selected) == sorted(demo_scene.camera_ids)
    with pytest.raises(ValueError):
        add_view(demo_scene, state, _geom_score_fn(demo_scene))


def test_greedy_prefix_stability(demo_scene):
    trace = _trace(demo_scene)
    s3, _ = run_ivs(demo_scene, trace,
                    SelectionConfig(k_max=3, n_frames=4,
                                    strategy="geometric"))
    s5, _ = run_ivs(demo_scene, trace,
                    SelectionConfig(k_max=5, n_frames=4,
                                    strategy="geometric"))
    assert s5.selected[:3] == s3.selected


def test_run_ivs_is_deterministic(demo_scene):
    trace = _trace(demo_scene)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="geometric")
    a, da = run_ivs(demo_scene, trace, cfg)
    b, db = run_ivs(demo_scene, trace, cfg)
    assert a.selected == b.selected
    assert da.frame_ids == db.frame_ids


def test_select_frames_count_and_uniqueness(demo_scene):
    trace = _trace(demo_scene, n=10)

    def predict(frame, vis):
        return oracle_predict(frame, vis, demo_scene)

    ids = select_frames(demo_scene, trace, predict, 4)
    assert len(ids) == len(set(ids)) == 4
    with pytest.raises(ValueError):
        select_frames(demo_scene, trace, predict, 11)


def test_select_frames_first_has_largest_count(demo_scene):
    trace = _trace(demo_scene, n=10)
    v_max = max(demo_scene.camera_ids,
                key=lambda c: demo_scene.footprint(c).area_cells)
    fov = demo_scene.footprint(v_max).mask

    def predict(frame, vis):
        return oracle_predict(frame, vis, demo_scene)

    ids = select_frames(demo_scene, trace, predict, 3)
    totals = {f.frame_id: predict(f, fov).total for f in trace}
    assert totals[ids[0]] == max(totals.values())


def test_select_first_view_modes(demo_scene):
    trace = _trace(demo_scene, n=4)

    def predict(frame, vis):
        return oracle_predict(frame, vis, demo_scene)

    by_fov = select_first_view(demo_scene, trace, predict, "largest_fov")
    areas = {c: demo_scene.footprint(c).area_cells
             for c in demo_scene.camera_ids}
    assert areas[by_fov] == max(areas.values())
    by_count = select_first_view(demo_scene, trace, predict,
                                 "largest_predicted_count")
    assert by_count in demo_scene.camera_ids
    with pytest.raises(ValueError):
        select_first_view(demo_scene, trace, predict, "nope")


def test_random_select_reproducible_and_valid(demo_scene):
    a = random_select(demo_scene, 3, seed=2)
    b = random_select(demo_scene, 3, seed=2)
    assert a.selected == b.selected
    assert len(set(a.selected)) == 3
    assert all(c in demo_scene.camera_ids for c in a.selected)
    with pytest.raises(ValueError):
        random_select(demo_scene, 99, seed=0)


def test_brute_force_agrees_with_enumeration(demo_scene):
    trace = _trace(demo_scene, n=3)
    subset, val = brute_force_best(demo_scene, trace, k=2)
    # verify optimality directly
    import itertools
    best = max(itertools.combinations(sorted(demo_scene.camera_ids), 2),
               key=lambda s: cover_rate(
                   trace, demo_scene.visibility_of(list(s)),
                   demo_scene.grid))
    assert val == pytest.approx(cover_rate(
        trace, demo_scene.visibility_of(list(best)), demo_scene.grid))


def test_brute_force_budget_guard(demo_scene):
    with pytest.raises(ValueError):
        brute_force_best(demo_scene, _trace(demo_scene, n=2), k=3, budget=1)


def test_run_avs_converges_and_trains(demo_scene):
    trace = _trace(demo_scene, n=8)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="mask", tau=25.0,
                          epochs=20)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=0, q_scale=150.0)
    state, dataset, trained = run_avs(demo_scene, trace, cfg, pred)
    assert len(state.selected) == 3
    assert not state.non_converged
    assert trained.calibration.quality > pred.calibration.quality
    assert dataset.camera_ids == state.selected
    assert dataset.budget_images == 4 * 3


def test_run_avs_flags_non_convergence(demo_scene):
    trace = _trace(demo_scene, n=8)
    # an impossible gate: tau no predictor can reach in 3 epochs
    cfg = SelectionConfig(k_max=4, n_frames=4, strategy="mask", tau=1e-6,
                          epochs=3)
    pred = PredictorConfig(miss_rate=0.8, position_jitter_m=2.0,
                           count_noise_rel=0.5, seed=0, q_scale=1e7)
    state, _, _ = run_avs(demo_scene, trace, cfg, pred)
    assert state.non_converged
    assert len(state.selected) < 4


def test_run_avs_deterministic(demo_scene):
    trace = _trace(demo_scene, n=8)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="density", tau=25.0,
                          epochs=20)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    a, _, _ = run_avs(demo_scene, trace, cfg, pred)
    b, _, _ = run_avs(demo_scene, trace, cfg, pred)
    assert a.selected == b.selected


def test_run_ivs_rejects_wrong_strategy(demo_scene):
    with pytest.raises(ValueError):
        run_ivs(demo_scene, _trace(demo_scene),
                SelectionConfig(strategy="mask"))


def test_run_avs_rejects_wrong_strategy(demo_scene):
    with pytest.raises(ValueError):
        run_avs(demo_scene, _trace(demo_scene),
                SelectionConfig(strategy="geometric"), PredictorConfig())


def test_train_after_selection_improves_quality(demo_scene):
    trace = _trace(demo_scene, n=6)
    state = random_select(demo_scene, 3, seed=1)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="random", epochs=10)
    trained = train_after_selection(demo_scene, trace[:4], state, cfg,
                                    PredictorConfig(q_scale=100.0))
    assert trained.calibration.quality > 0.25
    # double the epochs, strictly more quality
    cfg20 = SelectionConfig(k_max=3, n_frames=4, strategy="random", epochs=20)
    longer = train_after_selection(demo_scene, trace[:4], state, cfg20,
                                   PredictorConfig(q_scale=100.0))
    assert longer.calibration.quality > trained.calibration.quality


def _count_calls(monkeypatch, module, name, key=lambda *a, **k: None):
    """Wrap module.name with a recorder; returns the list of call keys."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(key(*args, **kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_simulated_training_call_counts(demo_scene, monkeypatch):
    credit = _count_calls(monkeypatch, selection_module, "view_person_credit",
                          key=lambda scene, frames, camera_id: camera_id)
    predicted = [_count_calls(monkeypatch, module, "noisy_predict")
                 for module in (predictor_module, selection_module)]
    trace = _trace(demo_scene, n=8)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="density", tau=25.0,
                          epochs=20, pseudo_stages="both")
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    state, _, _ = run_avs(demo_scene, trace, cfg, pred)
    assert sorted(credit) == sorted(demo_scene.camera_ids)
    assert all(predicted)  # the counters see the predictor's calls

    for calls in [credit] + predicted:
        calls.clear()
    train_after_selection(demo_scene, trace[:4], state, cfg, pred)
    assert sorted(credit) == sorted(demo_scene.camera_ids)
    assert predicted == [[], []]

    # without pseudo-labels only the labeled cameras' credit is read
    credit.clear()
    train_after_selection(demo_scene, trace[:4], state,
                          replace(cfg, pseudo_stages="none"), pred)
    assert credit == list(state.selected)
    assert predicted == [[], []]


def test_add_view_tie_goes_to_lowest_id():
    # twin poses score exactly equal; the roster lists the higher id first
    grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)

    def cam(cid, x, yaw):
        return CameraPose(id=cid, position_3d=(x, 0.0, 5.0), yaw=yaw,
                          pitch=-0.5, horizontal_fov_rad=1.2,
                          vertical_fov_rad=1.0, max_range_m=30.0)
    scene = Scene(grid=grid, cameras=[cam("first", 0.0, 0.8),
                                      cam("twin2", 15.0, 2.0),
                                      cam("twin1", 15.0, 2.0)])
    score_fn = _score_fn(scene, SelectionConfig(strategy="geometric"))
    a, b = score_fn(["first"], ["twin1", "twin2"])
    assert a == b and a.total > 0.0
    state = add_view(scene, _initial_state(scene, "first"), score_fn)
    assert state.selected == ("first", "twin1")


def test_run_ivs_builds_one_group_field_per_round(demo_scene, monkeypatch):
    fields = _count_calls(monkeypatch, scoring_module,
                          "inverse_distance_field")
    rounds = _count_calls(monkeypatch, selection_module, "score_round")
    k = 5
    cfg = SelectionConfig(k_max=k, n_frames=4, strategy="geometric")
    state, _ = run_ivs(demo_scene, _trace(demo_scene), cfg)
    assert len(state.selected) == k
    # one field per greedy round, not one per candidate
    assert len(fields) == len(rounds) == k - 1


def test_run_ivs_computes_each_camera_constant_once(demo_scene, monkeypatch):
    points = [c.ground_position for c in demo_scene.cameras]
    assert len(set(points)) == len(points)
    distances = _count_calls(monkeypatch, geometry_module, "floored_distance",
                             key=lambda x, y, point, grid: tuple(point))
    crosses = _count_calls(monkeypatch, np, "cross")
    cfg = SelectionConfig(k_max=5, n_frames=4, strategy="geometric")
    for seed in (0, 1):
        state, _ = run_ivs(demo_scene, _trace(demo_scene, seed=seed), cfg)
        assert len(state.selected) == 5
    # each camera's footprint distances once per scene, not once per round
    # or per run; the scene's poses already hold their frame axes
    assert distances and len(distances) == len(set(distances))
    assert crosses == []


def test_run_avs_computes_each_camera_distance_once(demo_scene, monkeypatch):
    distances = _count_calls(monkeypatch, geometry_module, "floored_distance",
                             key=lambda x, y, point, grid: tuple(point))
    cfg = SelectionConfig(k_max=4, n_frames=4, strategy="density", tau=25.0,
                          epochs=20)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    for seed in (0, 1):
        state, _, _ = run_avs(demo_scene, _trace(demo_scene, seed=seed), cfg,
                              pred)
        assert len(state.selected) == 4
    assert distances and len(distances) == len(set(distances))


def test_first_view_reuses_frame_selection_totals(demo_scene):
    trace = _trace(demo_scene)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3)

    def predict(frame, vis):
        return noisy_predict(frame, vis, demo_scene, pred)
    frame_ids, known = _select_frames(demo_scene, trace, predict, 4)
    assert frame_ids == select_frames(demo_scene, trace, predict, 4)
    frames = [f for f in trace if f.frame_id in frame_ids]
    assert (_select_first_view(demo_scene, frames, predict,
                               "largest_predicted_count", known)
            == select_first_view(demo_scene, frames, predict,
                                 "largest_predicted_count"))


def test_run_avs_predicts_each_frame_once_per_gated_epoch(monkeypatch):
    # the README library demo: 110 predictions when the gate and the
    # averaged map each predicted the frames, 90 when they share them, 85
    # when the first view reuses the widest camera's frame predictions
    predicted = [_count_calls(monkeypatch, module, "noisy_predict")
                 for module in (predictor_module, selection_module)]
    grid = GroundGrid(height_cells=80, width_cells=80, cell_size_m=0.5)
    scene = generate_scene(12, grid, seed=1)
    trace = generate_crowd_trace(grid, n_frames=10, count_range=(80, 140),
                                 clustering=0.85, seed=2)
    config = SelectionConfig(k_max=5, n_frames=5, strategy="density",
                             tau=30.0)
    predictor = PredictorConfig(miss_rate=0.9, position_jitter_m=1.5,
                                count_noise_rel=0.2, q_scale=400.0)
    state, _, _ = run_avs(scene, trace, config, predictor)
    assert len(state.selected) == 5
    assert sum(map(len, predicted)) == 85


def test_run_avs_rasterizes_each_labeled_frame_unmasked_once(monkeypatch):
    # the crowding term of each labeled frame is computed once per run,
    # not once per gated epoch (the README library demo)
    unmasked = _count_calls(monkeypatch, predictor_module,
                            "rasterize_density",
                            key=lambda frame, grid, sigma, mask=None:
                            mask is None)
    grid = GroundGrid(height_cells=80, width_cells=80, cell_size_m=0.5)
    scene = generate_scene(12, grid, seed=1)
    trace = generate_crowd_trace(grid, n_frames=10, count_range=(80, 140),
                                 clustering=0.85, seed=2)
    config = SelectionConfig(k_max=5, n_frames=5, strategy="density",
                             tau=30.0)
    predictor = PredictorConfig(miss_rate=0.9, position_jitter_m=1.5,
                                count_noise_rel=0.2, q_scale=400.0)
    state, _, _ = run_avs(scene, trace, config, predictor)
    assert len(state.selected) == 5
    assert sum(unmasked) == config.n_frames


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("tau", float("nan")), ("tau", float("inf")),
    ("lam", float("nan")), ("epsilon", float("-inf")),
    ("pseudo_credit", float("nan")), ("sigma_mode", float("nan")),
    ("sigma_mode", float("inf")),
])
def test_selection_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError):
        SelectionConfig(**{field: value})


def test_selection_config_round_trip():
    cfg = SelectionConfig(k_max=4, n_frames=6, strategy="density", tau=12.0,
                          seed=3, epochs=17, terms=("sc", "ad"),
                          pseudo_stages="viewsel")
    assert SelectionConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        SelectionConfig(strategy="bogus")
    with pytest.raises(ValueError):
        SelectionConfig(pseudo_stages="bogus")


def test_one_dominant_camera_is_selected_first():
    # one camera that sees the whole area must win the first greedy pick
    grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
    scene = generate_scene(5, grid, seed=21)
    trace = generate_crowd_trace(grid, 4, (20, 40), 0.7, seed=1)
    areas = {c: scene.footprint(c).area_cells for c in scene.camera_ids}
    biggest = max(sorted(areas), key=lambda c: areas[c])
    cfg = SelectionConfig(k_max=1, n_frames=2, strategy="geometric")
    state, _ = run_ivs(scene, trace, cfg)
    assert state.selected == (biggest,)
