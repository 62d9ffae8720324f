"""Property-based invariants over randomized geometry and scores."""

import numpy as np
from hypothesis import given, settings, strategies as st

from viewsel import (CalibrationState, CrowdFrame, DensityMap,
                     PredictorConfig, binarize_density, calibrate,
                     cover_rate, noisy_predict, rasterize_density,
                     score_scene_coverage, score_view_diversity,
                     visible_persons)
from viewsel.predictor import crowding_factor
from viewsel.geometry import GroundGrid

from conftest import random_small_scene
from reference import (ref_noisy_predict, ref_rasterize_density,
                       ref_visible_persons)


@st.composite
def grids(draw):
    h = draw(st.integers(4, 30))
    w = draw(st.integers(4, 30))
    return GroundGrid(height_cells=h, width_cells=w, cell_size_m=0.5)


@st.composite
def mask_pairs(draw):
    grid = draw(grids())
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    a = rng.random(grid.shape) < draw(st.floats(0.0, 1.0))
    b = rng.random(grid.shape) < draw(st.floats(0.0, 1.0))
    return grid, a, b


@given(mask_pairs())
@settings(max_examples=150, deadline=None)
def test_scene_coverage_monotone_under_union(data):
    grid, a, b = data
    assert score_scene_coverage(a | b, grid) >= score_scene_coverage(a, grid)
    assert score_scene_coverage(a | b, grid) <= 1.0


@given(mask_pairs(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=150, deadline=None)
def test_cover_rate_monotone_under_union(data, seed):
    grid, a, b = data
    rng = np.random.default_rng(seed)
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    pts = rng.uniform([ox, oy], [ox + ex, oy + ey], size=(25, 2))
    frames = [CrowdFrame(frame_id=0, positions=pts)]
    assert cover_rate(frames, a | b, grid) >= cover_rate(frames, a, grid)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_scene_coverage_monotone_under_view_addition(seed):
    rng = np.random.default_rng(seed)
    scene = random_small_scene(rng, n_cameras=6)
    ids = list(scene.camera_ids)
    rng.shuffle(ids)
    prev = 0.0
    for k in range(1, len(ids) + 1):
        cur = score_scene_coverage(scene.visibility_of(ids[:k]), scene.grid)
        assert cur >= prev
        prev = cur


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_view_diversity_positive_and_unit_free(seed):
    rng = np.random.default_rng(seed)
    scene = random_small_scene(rng, n_cameras=5)
    val = score_view_diversity(scene.cameras)
    assert val > 0.0
    assert np.isfinite(val)
    assert score_view_diversity(scene.cameras[:1]) == 1.0


@given(st.integers(0, 2 ** 31 - 1), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_binarize_region_shrinks_with_threshold(seed, t1, t2):
    rng = np.random.default_rng(seed)
    dm = DensityMap(values=rng.random((12, 12)))
    lo, hi = sorted((t1, t2))
    assert (binarize_density(dm, hi) <= binarize_density(dm, lo)).all()


@st.composite
def crowd_frames(draw):
    """A frame of 0..60 people on a small grid, some straddling the edge or
    lying off the grid, with a random mask or none."""
    h = draw(st.integers(1, 25))
    w = draw(st.integers(1, 25))
    grid = GroundGrid(height_cells=h, width_cells=w,
                      cell_size_m=draw(st.sampled_from([0.5, 0.3, 1.0])),
                      origin=(draw(st.floats(-5.0, 5.0)),
                              draw(st.floats(-5.0, 5.0))))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    n = draw(st.integers(0, 60))
    ex, ey = grid.extent_m
    margin = draw(st.sampled_from([0.0, 1.0, 8.0]))  # meters past the edge
    ox, oy = grid.origin
    pts = rng.uniform([ox - margin, oy - margin],
                      [ox + ex + margin, oy + ey + margin], size=(n, 2))
    frame = CrowdFrame(frame_id=0, positions=pts)
    mask = rng.random(grid.shape) < 0.6 if draw(st.booleans()) else None
    return grid, frame, mask


@given(crowd_frames(), st.sampled_from([0.2, 0.7, 1.0, 2.3]))
@settings(max_examples=300, deadline=None)
def test_rasterize_density_equals_loop_reference(data, sigma):
    grid, frame, mask = data
    fast = rasterize_density(frame, grid, sigma, mask=mask).values
    assert fast.dtype == np.float64
    assert np.array_equal(fast, ref_rasterize_density(frame.persons, grid,
                                                      sigma, mask=mask))


@given(crowd_frames())
@settings(max_examples=200, deadline=None)
def test_visible_persons_equals_loop_reference(data):
    grid, frame, mask = data
    vis = mask if mask is not None else np.ones(grid.shape, dtype=bool)
    assert visible_persons(frame, vis, grid).persons \
        == ref_visible_persons(frame.persons, vis, grid)


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 40), st.sampled_from([0.0, 1.0, 8.0]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_noisy_predict_equals_person_list_reference(seed, quality, n, margin,
                                                    with_ids):
    """Empty frames (n = 0) and people up to margin meters off the grid;
    quality 1 takes the oracle path."""
    rng = np.random.default_rng(seed)
    scene = random_small_scene(rng, n_cameras=4)
    ox, oy = scene.grid.origin
    ex, ey = scene.grid.extent_m
    pts = rng.uniform([ox - margin, oy - margin],
                      [ox + ex + margin, oy + ey + margin], size=(n, 2))
    frame = CrowdFrame(frame_id=int(rng.integers(100)), positions=pts)
    ids = list(scene.camera_ids[:int(rng.integers(1, 5))])
    vis = scene.visibility_of(ids)
    config = PredictorConfig(
        miss_rate=float(rng.uniform(0.0, 1.0)),
        position_jitter_m=float(rng.uniform(0.0, 2.0)),
        count_noise_rel=float(rng.uniform(0.0, 0.5)), seed=seed % 1000,
        distance_falloff_m=6.0, crowding_half=0.5,
        calibration=CalibrationState(quality=quality))
    selected = ids if with_ids else None
    expected = ref_noisy_predict(frame, vis, scene, config,
                                 selected_ids=selected)
    fast = noisy_predict(frame, vis, scene, config, selected_ids=selected)
    assert np.array_equal(fast.values, expected)
    # the crowding a caller computed once per frame gives the same map
    given = noisy_predict(frame, vis, scene, config, selected_ids=selected,
                          crowding=crowding_factor(frame, scene.grid, config))
    assert np.array_equal(given.values, expected)


@given(st.floats(0.0, 1e4), st.integers(0, 60), st.floats(0.0, 1e6),
       st.floats(1e-3, 1e4))
@settings(max_examples=200, deadline=None)
def test_calibrate_epochs_equals_successive_calls(credit, n, labeled,
                                                  q_scale):
    config = PredictorConfig(
        q_scale=q_scale, calibration=CalibrationState(
            labeled_view_frames=labeled,
            quality=1.0 - float(np.exp(-labeled / q_scale))))
    stepwise = config
    for _ in range(n):
        stepwise = calibrate(stepwise, credit)
    assert calibrate(config, credit, epochs=n) == stepwise
