import math
from dataclasses import replace

import numpy as np
import pytest

from viewsel import (CalibrationState, CameraPose, CrowdFrame, GroundGrid,
                     PredictorConfig, Scene, SelectionConfig,
                     SelectionState, add_view, cover_rate,
                     generate_crowd_trace, noisy_draw, noisy_predict,
                     oracle_predict, random_select, run_avs, run_ivs,
                     run_selection, score_round, select_first_view,
                     select_frames, training_mae)
from viewsel import crowd as crowd_module
from viewsel import geometry as geometry_module
from viewsel import predictor as predictor_module
from viewsel import scoring as scoring_module
from viewsel import selection as selection_module
from viewsel.evaluate import evaluate
from viewsel.scoring import round_scorer
from viewsel.selection import (STRATEGIES, _initial_state,
                               train_after_selection, view_person_credit)
from viewsel.synth import generate_scene

from conftest import assert_coverage_derived, random_small_scene
from reference import (brute_force_best, ref_select_first_view,
                       ref_select_frames)


def _trace(scene, n=8, seed=0):
    return generate_crowd_trace(scene.grid, n, (30, 60), 0.8, seed=seed)


def _oracle_draws(frames):
    return [(frame, 1.0) for frame in frames]


def _geom_score_fn(scene):
    def fn(group, candidates):
        scores = []
        for cid in candidates:
            scores.append(score_round(group, [cid], scene, "geometric", None,
                                      "mean")[0])
        best = max(range(len(scores)), key=lambda i: scores[i].total)
        return best, scores[best]
    return fn


def test_add_view_picks_argmax(demo_scene):
    trace = _trace(demo_scene)
    cfg = SelectionConfig(k_max=2, n_frames=4, strategy="geometric")
    state, _ = run_ivs(demo_scene, trace, cfg)
    # recompute every candidate score for the second pick by hand
    first = state.selected[0]
    scores = {cid: score_round(
        [first], [cid], demo_scene, "geometric", None, "mean")[0].total
        for cid in demo_scene.camera_ids if cid != first}
    assert state.selected[1] == max(sorted(scores), key=lambda c: scores[c])


def test_add_view_exhausts_candidates(demo_scene):
    cfg = SelectionConfig(k_max=len(demo_scene.cameras), n_frames=3,
                          strategy="geometric")
    state, _ = run_ivs(demo_scene, _trace(demo_scene), cfg)
    assert sorted(state.selected) == sorted(demo_scene.camera_ids)
    with pytest.raises(ValueError):
        add_view(state, _geom_score_fn(demo_scene))


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
    ids = select_frames(demo_scene, _oracle_draws(trace), 4, 1.0)
    assert len(ids) == len(set(ids)) == 4
    with pytest.raises(ValueError):
        select_frames(demo_scene, _oracle_draws(trace), 11, 1.0)
    trace[1] = replace(trace[1], frame_id=trace[0].frame_id)
    with pytest.raises(ValueError, match="repeated frame id 0"):
        select_frames(demo_scene, _oracle_draws(trace), 3, 1.0)


def test_select_frames_refuses_an_empty_request(demo_scene):
    trace = _trace(demo_scene, n=3)
    for f in (0, -1):
        with pytest.raises(ValueError, match="at least one frame"):
            select_frames(demo_scene, _oracle_draws(trace), f, 1.0)
    with pytest.raises(ValueError, match="cannot select 1 frames from 0"):
        select_frames(demo_scene, [], 1, 1.0)


def test_select_frames_first_has_largest_count(demo_scene):
    trace = _trace(demo_scene, n=10)
    v_max = max(demo_scene.camera_ids,
                key=lambda c: np.count_nonzero(demo_scene.footprint(c).mask))
    fov = demo_scene.footprint(v_max).mask
    ids = select_frames(demo_scene, _oracle_draws(trace), 3, 1.0)
    totals = {f.frame_id: oracle_predict(f, fov, demo_scene).total
              for f in trace}
    assert totals[ids[0]] == max(totals.values())


def test_select_frames_norms_each_feature_once(demo_scene, monkeypatch):
    # empty frames have all-zero features and copies of one frame equal
    # features: both tie, and ties go to the lower frame id. Each frame
    # pair is compared once: the j-th pick compares the n - j frames left
    # with the newest chosen one
    base = _trace(demo_scene, n=6)
    empty = CrowdFrame(frame_id=0, positions=np.zeros((0, 2)))
    trace = [replace(empty, frame_id=i) for i in (6, 9)] + base + [
        replace(base[i], frame_id=10 + i) for i in (1, 2, 4)]
    # the scene's camera table, whose pair distances are norms too, is a
    # scene constant: built here, before the count
    demo_scene.camera_table()
    norms = _count_calls(monkeypatch, np.linalg, "norm")
    cosines = _count_calls(monkeypatch, selection_module, "_cosine")
    got = select_frames(demo_scene, _oracle_draws(trace), len(trace), 1.0)
    assert len(norms) == len(trace)
    n = len(trace)
    assert len(cosines) == sum(n - j for j in range(1, n)) == 55
    predict = lambda frame, fov: oracle_predict(frame, fov, demo_scene).values
    assert got == ref_select_frames(demo_scene, trace, predict, len(trace))
    assert got.index(6) < got.index(9)
    assert got.index(11) > got.index(1) and got.index(14) > got.index(4)


def test_run_ivs_tabulates_each_trace_frame_once_per_trace(demo_scene,
                                                          monkeypatch):
    # the trace frames hold their frame-selection features
    # (footprint_density), so a second run on the same trace tabulates no
    # frame again and selects as the first did
    tables = _count_calls(monkeypatch, crowd_module, "kernel_table")
    trace = _trace(demo_scene, n=8)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="geometric")
    first = run_ivs(demo_scene, trace, cfg)
    assert len(tables) == len(trace)
    second = run_ivs(demo_scene, trace, cfg)
    assert len(tables) == len(trace)
    assert first[0].selected == second[0].selected
    assert first[1] == second[1]


def test_footprint_density_is_keyed_by_grid_pose_and_sigma(small_grid):
    # one camera id under two poses, each the widest camera of its scene,
    # and two sigmas: four held features, each the oracle prediction on its
    # footprint. A scaled draw reads its feature and leaves it as it was
    frame = generate_crowd_trace(small_grid, 1, (60, 90), 0.8, seed=0)[0]
    pose = CameraPose(id="cam", position_3d=(10.0, 10.0, 8.0), yaw=0.0,
                      pitch=-1.0, horizontal_fov_rad=1.2,
                      vertical_fov_rad=0.9, max_range_m=30.0)
    scenes = [Scene(small_grid, [pose]),
              Scene(small_grid, [replace(pose, yaw=2.0)])]
    features = []
    for scene in scenes:
        fov = scene.footprint("cam").mask
        for sigma in (1.0, 2.3):
            held = frame.footprint_density(scene, "cam", sigma)
            oracle = oracle_predict(frame, fov, scene, sigma).values[fov]
            assert held.tobytes() == oracle.tobytes()
            assert frame.footprint_density(scene, "cam", sigma) is held
            features.append(held)
    assert len({held.tobytes() for held in features}) == 4
    kept = features[0].copy()
    assert select_frames(scenes[0], [(frame, 0.5)], 1, 1.0) == [0]
    assert frame.footprint_density(scenes[0], "cam", 1.0) is features[0]
    assert np.array_equal(features[0], kept)
    with pytest.raises(ValueError):
        features[0][0] = 0.0


def test_select_first_view_modes(demo_scene):
    # the independent pipeline starts from the widest camera, the active
    # one from select_first_view's largest predicted count
    trace = _trace(demo_scene, n=4)
    cfg = SelectionConfig(k_max=2, n_frames=4, strategy="geometric")
    by_fov = run_ivs(demo_scene, trace, cfg)[0].selected[0]
    areas = {c: np.count_nonzero(demo_scene.footprint(c).mask)
             for c in demo_scene.camera_ids}
    assert areas[by_fov] == max(areas.values())
    by_count = select_first_view(demo_scene, _oracle_draws(trace), 1.0)
    assert by_count in demo_scene.camera_ids


def test_select_first_view_refuses_no_frames(demo_scene):
    with pytest.raises(ValueError, match="no frames"):
        select_first_view(demo_scene, [], 1.0)


def test_random_select_reproducible_and_valid(demo_scene):
    a = random_select(demo_scene, 3, seed=2)
    b = random_select(demo_scene, 3, seed=2)
    assert a.selected == b.selected
    assert len(set(a.selected)) == 3
    assert all(c in demo_scene.camera_ids for c in a.selected)
    with pytest.raises(ValueError):
        random_select(demo_scene, 99, seed=0)


@pytest.mark.parametrize("k, message", [
    (0, "cannot select 0 views from 6 cameras"),
    (-1, "cannot select -1 views from 6 cameras"),
    (7, "cannot select 7 views from 6 cameras"),
    (2.0, "k must be an integer, not float"),
    (True, "k must be an integer, not bool"),
])
def test_random_select_refuses_a_k_outside_the_cameras(demo_scene, k,
                                                       message):
    assert len(demo_scene.cameras) == 6
    with pytest.raises(ValueError) as info:
        random_select(demo_scene, k, seed=0)
    assert str(info.value) == message


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, not -1"),
    (2.5, "seed must be an integer, not float"),
    (True, "seed must be an integer, not bool"),
])
def test_random_select_checks_its_seed_as_the_config_does(demo_scene, seed,
                                                          message):
    with pytest.raises(ValueError) as info:
        random_select(demo_scene, 3, seed=seed)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        SelectionConfig(seed=seed)
    assert str(info.value) == message


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
    state, _, trained = run_avs(demo_scene, trace, cfg, pred)
    assert len(state.selected) == 3
    assert not state.non_converged
    assert trained.calibration.quality > pred.calibration.quality


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
    assert_coverage_derived(state, demo_scene)


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
    predicted = [_count_calls(monkeypatch, selection_module, name)
                 for name in ("noisy_predict", "noisy_draw")]
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

    # without pseudo-labels the credit is the labeled cameras' alone: epochs
    # successive additions of f times their summed credit, in selected order
    credit.clear()
    trained = train_after_selection(demo_scene, trace[:4], state,
                                    replace(cfg, pseudo_stages="none"), pred)
    assert sorted(credit) == sorted(demo_scene.camera_ids)
    assert predicted == [[], []]
    per_epoch = 4 * sum(view_person_credit(demo_scene, trace[:4], cid)
                        for cid in state.selected)
    labeled = pred.calibration.labeled_view_frames
    for _ in range(cfg.epochs):
        labeled += per_epoch
    assert trained.calibration.labeled_view_frames == labeled


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
    a, b = score_round(["first"], ["twin1", "twin2"], scene, "geometric")
    assert a == b and a.total > 0.0
    score_fn = round_scorer(scene, "geometric")
    state = add_view(_initial_state(scene, "first"), score_fn)
    assert state.selected == ("first", "twin1")


def test_run_ivs_adds_each_camera_term_once(demo_scene, monkeypatch):
    terms = _count_calls(monkeypatch, scoring_module._Round, "term",
                         key=lambda self, position: int(position))
    exact = _count_calls(monkeypatch, scoring_module._Round, "exact",
                         key=lambda self, position, s_vd: int(position))
    rounds = _count_calls(monkeypatch, scoring_module._Round, "__init__")
    k = 5
    cfg = SelectionConfig(k_max=k, n_frames=4, strategy="geometric")
    state, _ = run_ivs(demo_scene, _trace(demo_scene), cfg)
    assert len(state.selected) == k
    # the run carries one round: the first camera states its term when it
    # joins the group, and every later camera only when scored exactly,
    # once per time it contends; a winner joins with the field that its
    # exact score built
    first = demo_scene.camera_index(state.selected[0])
    assert sorted(terms) == sorted([first, *exact])
    assert len(exact) >= k - 1 and len(rounds) == 1


def _exact_scores_per_round(monkeypatch):
    """The number of candidates each greedy round scores on the full grid,
    one list entry per round, filled as rounds run."""
    per_round = []
    rounds, exact = selection_module.add_view, scoring_module._Round.exact

    def count_round(*args, **kwargs):
        per_round.append(0)
        return rounds(*args, **kwargs)

    def count_exact(self, position, s_vd):
        per_round[-1] += 1
        return exact(self, position, s_vd)
    monkeypatch.setattr(selection_module, "add_view", count_round)
    monkeypatch.setattr(scoring_module._Round, "exact", count_exact)
    return per_round


def test_greedy_rounds_score_few_candidates_exactly(demo_scene, monkeypatch):
    # the screen leaves a round's winner and its rounding near-ties alone to
    # the full-grid score, not every candidate
    per_round = _exact_scores_per_round(monkeypatch)
    large = generate_scene(40, GroundGrid(200, 200, 0.5), seed=1000)
    for scene, k in ((demo_scene, 5), (large, 10)):
        cfg = SelectionConfig(k_max=k, n_frames=4, strategy="geometric")
        run_ivs(scene, _trace(scene), cfg)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3)
    for strategy in ("mask", "density"):
        cfg = SelectionConfig(k_max=5, n_frames=4, strategy=strategy,
                              tau=25.0, epochs=20)
        run_avs(demo_scene, _trace(demo_scene), cfg, pred)
    assert len(per_round) >= 4 + 9 + 2
    assert 1 <= min(per_round) and max(per_round) <= 2


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


def test_run_ivs_computes_each_camera_axis_once(demo_scene, monkeypatch):
    axes = _count_calls(monkeypatch, geometry_module,
                        "ground_axis_or_none", key=lambda cam: cam.id)
    cfg = SelectionConfig(k_max=5, n_frames=4, strategy="geometric")
    for seed in (0, 1):
        state, _ = run_ivs(demo_scene, _trace(demo_scene, seed=seed), cfg)
        assert len(state.selected) == 5
    # the scene holds each camera's ground axis and each pair's geometry:
    # one axis per camera across both runs, not one per pair or round
    assert axes and len(axes) == len(set(axes))


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


def test_select_first_view_equals_per_camera_reference():
    # one draw and one kernel table per frame pick the camera that
    # predicting every frame under every camera's footprint picks
    rng = np.random.default_rng(11)
    for _ in range(20):
        scene = random_small_scene(rng)
        frames = generate_crowd_trace(
            scene.grid, int(rng.integers(1, 5)), (0, 60),
            float(rng.uniform()), seed=int(rng.integers(1 << 31)))
        config = PredictorConfig(
            miss_rate=float(rng.uniform()),
            position_jitter_m=float(rng.uniform(0.0, 2.0)),
            count_noise_rel=float(rng.uniform(0.0, 0.5)),
            kernel_sigma_cells=float(rng.choice([0.7, 1.0, 2.3])),
            seed=int(rng.integers(1000)),
            calibration=CalibrationState(
                quality=float(rng.choice([0.0, 0.5, 1.0]))))

        def predict(frame, vis):
            return noisy_predict(frame, vis, scene, config).values
        assert select_first_view(
            scene, [noisy_draw(frame, config) for frame in frames],
            config.kernel_sigma_cells) \
            == ref_select_first_view(scene, frames, predict)


def test_select_first_view_sums_each_cameras_totals_left_to_right():
    # two nadir cameras with disjoint footprints, and people on cell
    # centers, whose kernel at sigma 0.18 is one cell of weight 1.0: each
    # frame's count under a camera is its people there times the frame's
    # power-of-two scale, exactly. "a" counts 2**53, 1, 1 and "b" 2**53,
    # 2, 0: added one at a time in frame order, 2**53 + 1 rounds back to
    # 2**53 and "b" leads by 2, while an exact sum (math.fsum, or the
    # compensated sum() of Python 3.12) ties them and the tie goes to "a";
    # added from the last frame, the two tie as well
    grid = GroundGrid(height_cells=20, width_cells=20, cell_size_m=0.5)
    cams = [CameraPose(id=cid, position_3d=(x, 5.0, 3.0), yaw=0.0,
                       pitch=-np.pi / 2, horizontal_fov_rad=1.2,
                       vertical_fov_rad=1.2, max_range_m=30.0)
            for cid, x in (("a", 2.5), ("b", 7.5))]
    scene = Scene(grid=grid, cameras=cams)
    assert not (scene.footprint("a").mask & scene.footprint("b").mask).any()
    in_a, in_b, also_b = (2.25, 5.25), (7.75, 5.25), (7.25, 4.75)
    draws = [(CrowdFrame(0, [in_a, in_b]), 2.0 ** 53),
             (CrowdFrame(1, [in_a, in_b, also_b]), 1.0),
             (CrowdFrame(2, [in_a]), 1.0)]
    counts = {"a": [2.0 ** 53, 1.0, 1.0], "b": [2.0 ** 53, 2.0, 0.0]}
    for cid, want in counts.items():
        fov = scene.footprint(cid).mask
        assert [float(oracle_predict(frame, fov, scene, 0.18).total * scale)
                for frame, scale in draws] == want
    assert 2.0 ** 53 + 1.0 + 1.0 < 2.0 ** 53 + 2.0 + 0.0
    assert math.fsum(counts["a"]) == math.fsum(counts["b"])
    assert select_first_view(scene, draws, 0.18) == "b"
    assert select_first_view(scene, draws[::-1], 0.18) == "a"


def test_select_frames_equals_per_frame_reference():
    # short traces, then traces of 8-12 frames with copies of one frame and
    # empty frames among them, whose features tie when no noise is left
    rng = np.random.default_rng(12)
    for case in range(40):
        scene = random_small_scene(rng)
        # close counts, so that the count scale can decide the first frame
        lo = int(rng.integers(0, 40))
        n = int(rng.integers(1, 7) if case < 20 else rng.integers(5, 10))
        trace = generate_crowd_trace(
            scene.grid, n, (lo, lo + 4), float(rng.uniform()),
            seed=int(rng.integers(1 << 31)))
        if case >= 20:
            copy = trace[int(rng.integers(n))]
            trace += [replace(copy, frame_id=n),
                      CrowdFrame(frame_id=n + 1, positions=np.zeros((0, 2))),
                      CrowdFrame(frame_id=n + 2, positions=np.zeros((0, 2)))]
            rng.shuffle(trace)
        config = PredictorConfig(
            miss_rate=float(rng.uniform()),
            position_jitter_m=float(rng.uniform(0.0, 2.0)),
            count_noise_rel=float(rng.uniform(0.0, 0.9)),
            kernel_sigma_cells=float(rng.choice([0.7, 1.0, 2.3])),
            seed=int(rng.integers(1000)),
            calibration=CalibrationState(
                quality=float(rng.choice([0.0, 0.5, 1.0]))))
        f = int(rng.integers(1, len(trace) + 1))

        def predict(frame, vis):
            return noisy_predict(frame, vis, scene, config).values
        assert select_frames(
            scene, [noisy_draw(frame, config) for frame in trace], f,
            config.kernel_sigma_cells) \
            == ref_select_frames(scene, trace, predict, f)


def test_frame_and_first_view_selection_draw_each_frame_once(
        demo_scene, monkeypatch):
    trace = _trace(demo_scene, n=10)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3)
    # before its first epoch, run_avs only draws, each trace frame once in
    # trace order: first-view selection reuses frame selection's draws
    draws = _count_calls(monkeypatch, selection_module, "noisy_draw",
                         key=lambda frame, config: frame.frame_id)
    predicted = [_count_calls(monkeypatch, module, "noisy_predict")
                 for module in (predictor_module, selection_module)]
    by_frames = _count_calls(monkeypatch, selection_module, "select_frames",
                             key=lambda scene, drawn, f, sigma: drawn)
    by_view = _count_calls(monkeypatch, selection_module,
                           "select_first_view",
                           key=lambda scene, drawn, sigma: drawn)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="density", epochs=0)
    _, dataset, _ = run_avs(demo_scene, trace, cfg, pred)
    assert draws == [f.frame_id for f in trace]
    assert predicted == [[], []]
    # the very draws, in the chosen order
    [drawn], [firsts] = by_frames, by_view
    assert [d[0].frame_id for d in drawn] == [f.frame_id for f in trace]
    by_id = {d[0].frame_id: d for d in drawn}
    assert len(firsts) == len(dataset.frame_ids) == 4
    assert all(d is by_id[fid] for d, fid in zip(firsts, dataset.frame_ids))


def test_run_avs_predicts_each_frame_once_per_gated_epoch(monkeypatch):
    # the README library demo: frame and first-view selection only draw,
    # so the predictions are those of the gated epochs, each labeled frame
    # once per epoch (110 calls when the gate and the averaged map each
    # predicted the frames, 85 when the first view predicted every camera)
    predicted = [_count_calls(monkeypatch, module, "noisy_predict",
                              key=lambda frame, vis, scene, config, **kw:
                              (frame.frame_id, config.calibration.quality))
                 for module in (predictor_module, selection_module)]
    grid = GroundGrid(height_cells=80, width_cells=80, cell_size_m=0.5)
    scene = generate_scene(12, grid, seed=1)
    trace = generate_crowd_trace(grid, n_frames=10, count_range=(80, 140),
                                 clustering=0.85, seed=2)
    config = SelectionConfig(k_max=5, n_frames=5, strategy="density",
                             tau=30.0)
    predictor = PredictorConfig(miss_rate=0.9, position_jitter_m=1.5,
                                count_noise_rel=0.2, q_scale=400.0)
    state, dataset, _ = run_avs(scene, trace, config, predictor)
    assert len(state.selected) == 5
    predicted = predicted[0] + predicted[1]
    epochs = sorted({q for _, q in predicted})
    assert sorted(predicted) == sorted(
        (fid, q) for q in epochs for fid in dataset.frame_ids)
    assert len(predicted) == 20


def test_run_avs_training_counts_are_the_current_groups(demo_scene,
                                                       monkeypatch):
    # run_avs counts each group's covered people once; every gated epoch
    # must see the counts under the mask it predicted with
    epoch = {}
    checked = []

    def predict(frame, vis, *args, **kwargs):
        epoch.setdefault("frames", []).append(frame)
        epoch["vis"] = vis
        return noisy_predict(frame, vis, *args, **kwargs)

    def mae(preds, covered):
        frames, vis = epoch.pop("frames"), epoch.pop("vis")
        assert covered == [int(f.seen(vis, demo_scene.grid).sum())
                           for f in frames]
        checked.append(vis.tobytes())
        return training_mae(preds, covered)
    monkeypatch.setattr(selection_module, "noisy_predict", predict)
    monkeypatch.setattr(selection_module, "training_mae", mae)
    cfg = SelectionConfig(k_max=4, n_frames=4, strategy="density", tau=25.0,
                          epochs=20)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    state, _, _ = run_avs(demo_scene, _trace(demo_scene), cfg, pred)
    assert len(state.selected) == 4
    # the groups of 1, 2 and 3 views were gated, each at least once
    assert len(set(checked)) == cfg.k_max - 1


def test_run_avs_rasterizes_each_labeled_frame_unmasked_once(monkeypatch):
    # the crowding term of each labeled frame is computed once per run,
    # not once per gated epoch (the README library demo); the frame
    # computes its local density in crowd
    unmasked = _count_calls(monkeypatch, crowd_module,
                            "rasterize_density")
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
    assert len(unmasked) == config.n_frames


def test_criterion_4_traffic_rasterizes_each_frame_unmasked_once(
        monkeypatch):
    # the four pipelines of acceptance criterion 4, each followed by
    # evaluate, on one trace: the frames hold their local density, so no
    # pipeline rasterizes a frame unmasked that another already did
    unmasked = _count_calls(monkeypatch, crowd_module, "rasterize_density",
                            key=lambda frame, grid, sigma: frame.frame_id)
    grid = GroundGrid(height_cells=80, width_cells=80, cell_size_m=0.5)
    scene = generate_scene(12, grid, seed=1000, range_frac=(0.5, 0.8))
    trace = generate_crowd_trace(grid, n_frames=10, count_range=(80, 140),
                                 clustering=0.85, seed=2000)

    def predictor():
        return PredictorConfig(miss_rate=0.9, position_jitter_m=1.5,
                               count_noise_rel=0.2, q_scale=400.0,
                               distance_falloff_m=6.0, crowding_half=0.5)

    for strategy, stages in (("random", "none"), ("geometric", "modeltrain"),
                             ("mask", "both"), ("density", "both")):
        config = SelectionConfig(k_max=5, n_frames=5, strategy=strategy,
                                 tau=30.0, epochs=24, pseudo_stages=stages)
        evaluate(scene, trace, *run_selection(scene, trace, config,
                                              predictor()))
    assert sorted(unmasked) == [f.frame_id for f in trace]


@pytest.mark.parametrize("field, value", [
    ("epochs", -1), ("tau", float("nan")), ("tau", float("inf")),
    ("sigma_mode", float("nan")), ("sigma_mode", float("inf")), ("seed", -1),
    ("sigma_mode", "median"), ("sigma_mode", True), ("tau", "20.0"),
])
def test_selection_config_rejects_bad_numbers(field, value):
    with pytest.raises(ValueError, match=field):
        SelectionConfig(**{field: value})


def test_selection_config_rejects_unknown_names():
    with pytest.raises(ValueError):
        SelectionConfig(strategy="bogus")
    with pytest.raises(ValueError):
        SelectionConfig(pseudo_stages="bogus")
    with pytest.raises(ValueError, match="unknown score term 'bogus'"):
        SelectionConfig(terms=("sc", "bogus"))
    with pytest.raises(ValueError, match="repeated score term 'sc'"):
        SelectionConfig(terms=("sc", "ad", "sc"))
    # no terms at all stays allowed
    assert SelectionConfig(terms=()).terms == ()


def test_a_state_or_config_built_from_lists_is_the_tuple_form(demo_scene):
    # lists are stored as tuples: the list-built state hashes, grows and
    # compares as the tuple-built one, whose to_dict record it shares
    first = demo_scene.camera_ids[0]
    listed = SelectionState(selected=[first], scene=demo_scene,
                            history=[[first, None]])
    tupled = _initial_state(demo_scene, first)
    assert listed.to_dict() == tupled.to_dict()
    assert listed == tupled and hash(listed) == hash(tupled)
    assert (add_view(listed, round_scorer(demo_scene, "geometric"))
            == add_view(tupled, round_scorer(demo_scene, "geometric")))
    config = SelectionConfig(terms=["sc", "ad"])
    assert config == SelectionConfig(terms=("sc", "ad"))
    assert hash(config) == hash(SelectionConfig(terms=("sc", "ad")))


def test_a_state_refuses_what_its_artifact_reader_refuses(demo_scene):
    # a state names at least one of its scene's cameras and holds a bool
    # flag, however it is built
    first = demo_scene.camera_ids[0]
    for selected in ((), []):
        with pytest.raises(ValueError, match="no selected views"):
            SelectionState(selected=selected, scene=demo_scene)
    with pytest.raises(ValueError,
                       match=r"selection names unknown cameras: \['nope'\]"):
        SelectionState(selected=(first, "nope"), scene=demo_scene)
    for flag in ("yes", 1, None):
        with pytest.raises(ValueError, match="non_converged"):
            SelectionState(selected=(first,), scene=demo_scene,
                           non_converged=flag)


def test_one_dominant_camera_is_selected_first():
    # one camera that sees the whole area must win the first greedy pick
    grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
    scene = generate_scene(5, grid, seed=21)
    trace = generate_crowd_trace(grid, 4, (20, 40), 0.7, seed=1)
    areas = {c: np.count_nonzero(scene.footprint(c).mask)
             for c in scene.camera_ids}
    biggest = max(sorted(areas), key=lambda c: areas[c])
    cfg = SelectionConfig(k_max=1, n_frames=2, strategy="geometric")
    state, _ = run_ivs(scene, trace, cfg)
    assert state.selected == (biggest,)


def _run_entries(strategy):
    """The library entries that run a strategy: run_selection, and the
    pipeline it dispatches to."""
    entries = [run_selection]
    if strategy == "geometric":
        entries.append(run_ivs)
    elif strategy in ("mask", "density"):
        entries.append(run_avs)
    return entries


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("over", ["views", "frames", "repeated"])
def test_a_run_past_the_scene_or_trace_is_refused_before_any_draw(
        demo_scene, monkeypatch, strategy, over):
    trace = _trace(demo_scene)
    k, f = 3, 4
    if over == "views":
        k = len(demo_scene.cameras) + 1
        message = f"cannot select {k} views from 6 cameras"
    elif over == "frames":
        f = len(trace) + 1
        message = f"cannot select {f} frames from 8"
    else:
        # two frames under id 0, which frame selection cannot tell apart
        trace[1] = replace(trace[1], frame_id=0)
        message = "repeated frame id 0"
    draws = [_count_calls(monkeypatch, module, name)
             for module, name in ((predictor_module, "noisy_draw"),
                                  (predictor_module, "oracle_predict"),
                                  (selection_module, "noisy_draw"),
                                  (CrowdFrame, "footprint_density"))]
    cfg = SelectionConfig(k_max=k, n_frames=f, strategy=strategy, tau=25.0,
                          epochs=20)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    for entry in _run_entries(strategy):
        with pytest.raises(ValueError) as info:
            entry(demo_scene, trace, cfg, pred)
        assert str(info.value) == message
    assert draws == [[], [], [], []]


@pytest.mark.parametrize("fault, message", [
    ("off_grid", "frame 1: person at (-50.0, 5.0) outside grid extent"),
    ("non_finite", "frame 1: person at (nan, 5.0) has a non-finite position"),
    ("negative_id", "frame -2: frame id must be >= 0"),
    ("personless", "no persons in any frame"),
])
def test_every_entry_point_refuses_the_trace_the_cli_refuses(
        demo_scene, monkeypatch, fault, message):
    # the library's runs and evaluate refuse, with the CLI's text and
    # before any draw, a trace that the CLI refuses
    trace = _trace(demo_scene)
    if fault == "negative_id":
        trace[0] = replace(trace[0], frame_id=-2)
    elif fault == "personless":
        trace = [CrowdFrame(frame_id=frame.frame_id,
                            positions=np.empty((0, 2))) for frame in trace]
    else:
        positions = trace[1].positions.copy()
        positions[3] = (-50.0 if fault == "off_grid" else np.nan, 5.0)
        trace[1] = CrowdFrame(frame_id=1, positions=positions)
    draws = [_count_calls(monkeypatch, module, "noisy_draw")
             for module in (predictor_module, selection_module)]
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    state = random_select(demo_scene, 3, seed=0)
    entries = [
        lambda: run_ivs(demo_scene, trace, SelectionConfig(k_max=3,
                                                           n_frames=4)),
        lambda: run_avs(demo_scene, trace, SelectionConfig(
            k_max=3, n_frames=4, strategy="density"), pred),
        lambda: run_selection(demo_scene, trace, SelectionConfig(
            k_max=3, n_frames=4, strategy="random"), pred),
        lambda: evaluate(demo_scene, trace, state, pred),
    ]
    for entry in entries:
        with pytest.raises(ValueError) as info:
            entry()
        assert str(info.value) == message
    assert draws == [[], []]


def test_evaluate_and_training_refuse_a_scene_other_than_the_states():
    # two scenes with the same camera ids: the scene argument must be the
    # state's, which both read
    grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
    a, b = (generate_scene(5, grid, seed=seed) for seed in (1, 2))
    assert a.camera_ids == b.camera_ids and a != b
    trace = generate_crowd_trace(grid, 4, (10, 20), 0.6, seed=3)
    state = random_select(a, 3, seed=0)
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy="random", epochs=5)
    pred = PredictorConfig(miss_rate=0.3, seed=1)
    calls = (lambda scene: evaluate(scene, trace, state, pred),
             lambda scene: train_after_selection(scene, trace, state, cfg,
                                                 pred))
    for call in calls:
        with pytest.raises(ValueError,
                           match="scene is not the selection state's scene"):
            call(b)
        # an equal scene is the state's scene
        assert call(Scene.from_config(a.to_config())) == call(a)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_run_selection_checks_its_run_once(demo_scene, monkeypatch,
                                           strategy):
    # run_selection checks a random run itself and leaves run_ivs and
    # run_avs to check theirs, so the trace is scanned once per run
    runs = _count_calls(monkeypatch, selection_module, "check_run")
    scans = _count_calls(monkeypatch, selection_module, "check_trace")
    cfg = SelectionConfig(k_max=3, n_frames=4, strategy=strategy, tau=25.0,
                          epochs=10)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    run_selection(demo_scene, _trace(demo_scene), cfg, pred)
    assert (len(runs), len(scans)) == (1, 1)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_of_every_camera_and_frame_is_not_refused(demo_scene,
                                                         strategy):
    # the budget may take all the scene and the trace hold
    trace = _trace(demo_scene)
    cfg = SelectionConfig(k_max=len(demo_scene.cameras), n_frames=len(trace),
                          strategy=strategy, tau=25.0, epochs=20)
    pred = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                           count_noise_rel=0.1, seed=3, q_scale=150.0)
    state, trained = run_selection(demo_scene, trace, cfg, pred)
    assert not state.non_converged
    assert sorted(state.selected) == sorted(demo_scene.camera_ids)
    assert trained.calibration.labeled_view_frames > 0
