"""Property-based invariants over randomized geometry and scores."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsel import (CalibrationState, CrowdFrame, DensityMap,
                     PredictorConfig, accumulate_density, binarize_density,
                     calibrate, check_trace, cover_rate, extract_peaks,
                     kernel_table, noisy_predict, oracle_predict,
                     rasterize_density, score_round)
from viewsel.geometry import FovFootprint, GroundGrid, Scene
from viewsel.selection import view_person_credit
from viewsel.synth import generate_scene

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
        # the S_sc that a greedy round scores for ids[k - 1] after ids[:k - 1]
        cur = score_round(ids[:k - 1], ids[k - 1:k], scene,
                          "geometric")[0].s_sc
        assert prev <= cur <= 1.0
        prev = cur


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_view_diversity_positive_and_unit_free(seed):
    rng = np.random.default_rng(seed)
    scene = random_small_scene(rng, n_cameras=5)
    ids = scene.camera_ids
    val = score_round(ids[:-1], ids[-1:], scene, "geometric")[0].s_vd
    assert val > 0.0
    assert np.isfinite(val)
    assert score_round([], ids[:1], scene, "geometric")[0].s_vd == 1.0


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
    points = frame.positions.tolist()
    fast = rasterize_density(frame, grid, sigma).values
    assert fast.dtype == np.float64
    assert np.array_equal(fast, ref_rasterize_density(points, grid, sigma))
    masked = accumulate_density(kernel_table(frame.positions, grid, sigma),
                                grid, mask=mask)
    assert np.array_equal(masked, ref_rasterize_density(points, grid, sigma,
                                                        mask=mask))


@given(crowd_frames(), st.sampled_from([0.2, 0.7, 1.0, 2.3]),
       st.integers(0, 2 ** 31 - 1), st.sampled_from(["all", "mask", "index"]))
@settings(max_examples=300, deadline=None)
def test_accumulated_subset_equals_loop_reference(data, sigma, seed, kind):
    """Empty frames and people straddling or entirely off the edge; rows as
    None, a boolean mask, or indices in any order, repeats included."""
    grid, frame, mask = data
    n = len(frame.positions)
    table = kernel_table(frame.positions, grid, sigma)
    size = (2 * int(np.ceil(4.0 * sigma)) + 1) ** 2
    cells, weights = table
    assert cells.shape == weights.shape == (n, size)
    # the spare bin h*w collects the window cells off the grid, at weight 0
    assert ((cells >= 0) & (cells <= grid.n_cells)).all()
    assert not weights[cells == grid.n_cells].any()
    rng = np.random.default_rng(seed)
    rows = {"all": None, "mask": rng.random(n) < 0.5,
            "index": rng.integers(0, max(n, 1), size=rng.integers(0, n + 1))
            }[kind]
    subset = np.arange(n) if rows is None else np.arange(n)[rows]
    points = frame.positions.tolist()
    fast = accumulate_density(table, grid, rows, mask)
    assert fast.dtype == np.float64
    assert np.array_equal(fast, ref_rasterize_density(
        [points[k] for k in subset], grid, sigma, mask=mask))


@given(crowd_frames(), st.sampled_from([0.2, 0.7, 1.0, 2.3]))
@settings(max_examples=200, deadline=None)
def test_oracle_predict_equals_loop_reference(data, sigma):
    """The seen people picked by row and tabulated alone equal the loop
    references' visible people rasterized and masked."""
    grid, frame, mask = data
    vis = mask if mask is not None else np.ones(grid.shape, dtype=bool)
    fast = oracle_predict(frame, vis, generate_scene(1, grid, seed=0),
                          sigma).values
    seen = ref_visible_persons(frame.positions.tolist(), vis, grid)
    assert np.array_equal(fast, ref_rasterize_density(seen, grid, sigma,
                                                      mask=vis))


@given(crowd_frames(), st.sampled_from([0.2, 0.7, 1.0, 2.3]),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=200, deadline=None)
def test_footprint_density_is_the_oracle_prediction_on_the_footprint(
        data, sigma, seed):
    """Empty frames and people off the grid, under every camera of a scene
    on the frame's grid: the held feature has the bits of the oracle
    prediction under the footprint, read on the footprint."""
    grid, frame, _ = data
    scene = generate_scene(3, grid, seed=seed)
    for cid in scene.camera_ids:
        fov = scene.footprint(cid).mask
        held = frame.footprint_density(scene, cid, sigma)
        oracle = oracle_predict(frame, fov, scene, sigma).values[fov]
        assert held.dtype == oracle.dtype and held.shape == oracle.shape
        assert held.tobytes() == oracle.tobytes()


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
    # the frame now holds its constants, and reading them gives the same map
    warm = noisy_predict(frame, vis, scene, config, selected_ids=selected)
    assert np.array_equal(warm.values, expected)


def _frame_around(grid, rng, n, margin):
    """A frame of n people uniform over grid, widened by margin meters."""
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    pts = rng.uniform([ox - margin, oy - margin],
                      [ox + ex + margin, oy + ey + margin], size=(n, 2))
    return CrowdFrame(frame_id=int(rng.integers(100)), positions=pts)


def _noisy_config(rng, seed, **kw):
    return PredictorConfig(
        miss_rate=float(rng.uniform(0.05, 1.0)),
        position_jitter_m=float(rng.uniform(0.0, 2.0)),
        count_noise_rel=float(rng.uniform(0.0, 0.5)), seed=seed % 1000,
        distance_falloff_m=6.0, **kw)


def _held_arrays(frame, scene, sigma):
    return [*frame.cells(scene.grid), frame.local_density(scene.grid, sigma),
            *(frame.observation(scene, cid) for cid in scene.camera_ids)]


@given(st.integers(0, 2 ** 31 - 1), st.sampled_from([0.0, 0.5]),
       st.integers(1, 40), st.sampled_from([0.0, 1.0, 8.0]))
@settings(max_examples=100, deadline=None)
def test_noisy_predict_on_warm_frame_equals_reference(seed, quality, n,
                                                      margin):
    """The frame is first predicted under another grid, other sigmas and
    crowding_half values and other camera sets; none of what it then holds
    may reach a prediction whose values differ."""
    rng = np.random.default_rng(seed)
    scene = random_small_scene(rng, n_cameras=4)
    other = random_small_scene(rng, n_cameras=3)
    frame = _frame_around(scene.grid, rng, n, margin)
    ids = list(scene.camera_ids[:int(rng.integers(1, 5))])
    vis = scene.visibility_of(ids)
    config = _noisy_config(rng, seed, crowding_half=0.5,
                           calibration=CalibrationState(quality=quality))
    for warm_scene, warm_ids, sigma, half in (
            (other, other.camera_ids, 1.0, 0.5),
            (scene, scene.camera_ids[::-1], 0.7, 0.5),
            (scene, scene.camera_ids[:1], 1.0, 2.0),
            (scene, scene.camera_ids[1:], 2.3, 0.5)):
        warm = replace(config, kernel_sigma_cells=sigma, crowding_half=half)
        noisy_predict(frame, warm_scene.visibility_of(list(warm_ids)),
                      warm_scene, warm, selected_ids=list(warm_ids))
    expected = ref_noisy_predict(frame, vis, scene, config, selected_ids=ids)
    fast = noisy_predict(frame, vis, scene, config, selected_ids=ids)
    assert np.array_equal(fast.values, expected)
    for arr in _held_arrays(frame, scene, config.kernel_sigma_cells) \
            + _held_arrays(frame, other, 1.0):
        assert not arr.flags.writeable


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_frame_in_two_scenes_with_the_same_camera_ids(seed, n):
    """Same grid, same camera ids, other poses: each scene's prediction
    equals its own reference, whichever scene the frame saw first."""
    rng = np.random.default_rng(seed)
    a = random_small_scene(rng, n_cameras=4)
    b = generate_scene(4, a.grid, seed=int(rng.integers(1 << 31)))
    assert a.camera_ids == b.camera_ids and a.cameras != b.cameras
    frame = _frame_around(a.grid, rng, n, 1.0)
    config = _noisy_config(rng, seed, crowding_half=0.5)
    ids = list(a.camera_ids)
    for scene in (a, b, a):
        vis = scene.visibility_of(ids)
        expected = ref_noisy_predict(frame, vis, scene, config,
                                     selected_ids=ids)
        fast = noisy_predict(frame, vis, scene, config, selected_ids=ids)
        assert np.array_equal(fast.values, expected)


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
       st.sampled_from([0.0, 1.0, 8.0]))
@settings(max_examples=100, deadline=None)
def test_cover_rate_and_credit_equal_loop_counts(seed, n_frames, margin):
    """Empty frames and off-grid people included; each frame is counted
    again after it holds its cells, and a mask of the wrong shape raises."""
    rng = np.random.default_rng(seed)
    scene = random_small_scene(rng, n_cameras=3)
    grid = scene.grid
    frames = [_frame_around(grid, rng, int(rng.integers(0, 30)), margin)
              for _ in range(n_frames)]
    persons = [f.positions.tolist() for f in frames]
    vis = rng.random(grid.shape) < 0.5
    total = sum(len(p) for p in persons)
    for _ in range(2):
        if total:
            seen = sum(len(ref_visible_persons(p, vis, grid))
                       for p in persons)
            assert cover_rate(frames, vis, grid) == seen / total
        for cid in scene.camera_ids:
            fov = scene.footprint(cid).mask
            fracs = [len(ref_visible_persons(p, fov, grid)) / len(p)
                     for p in persons if p]
            assert view_person_credit(scene, frames, cid) == (
                float(np.mean(fracs)) if fracs else 0.0)
    wrong = np.ones((grid.height_cells + 1, grid.width_cells), dtype=bool)
    with pytest.raises(ValueError, match="shape"):
        cover_rate(frames + [_frame_around(grid, rng, 1, 0.0)], wrong, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Scene, "footprint", lambda self, cid: FovFootprint(
            cid, wrong.copy()))
        with pytest.raises(ValueError, match="shape"):
            view_person_credit(scene, frames + [_frame_around(grid, rng, 1,
                                                              0.0)],
                               scene.camera_ids[0])


def _first_off_grid_person(trace, grid):
    """check_trace's message for the first person in trace order that is
    non-finite or outside grid's closed extent, one person at a time; None
    when every person is inside."""
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    for frame in trace:
        for x, y in frame.positions.tolist():
            if not (math.isfinite(x) and math.isfinite(y)):
                what = "has a non-finite position"
            elif not (ox <= x <= ox + ex and oy <= y <= oy + ey):
                what = "outside grid extent"
            else:
                continue
            return f"frame {frame.frame_id}: person at ({x}, {y}) {what}"
    return None


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5),
       st.sampled_from([0.0, 1.0, 8.0]))
@settings(max_examples=200, deadline=None)
def test_check_trace_equals_per_person_loop(seed, n_frames, margin):
    """People up to margin meters past the grid, some placed exactly on an
    edge (the far edge is inside) and a few non-finite."""
    rng = np.random.default_rng(seed)
    grid = GroundGrid(height_cells=int(rng.integers(1, 30)),
                      width_cells=int(rng.integers(1, 30)),
                      cell_size_m=float(rng.choice([0.3, 0.5, 1.0])),
                      origin=tuple(rng.uniform(-5.0, 5.0, size=2).tolist()))
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    trace = []
    for fid in range(n_frames):
        pts = _frame_around(grid, rng, int(rng.integers(0, 30)),
                            margin).positions
        u = rng.random(pts.shape)
        pts = np.where(u < 0.1, (ox + ex, oy + ey),
                       np.where(u < 0.15, (ox, oy), pts))
        odd = rng.choice([np.nan, np.inf, -np.inf], size=pts.shape)
        pts = np.where(u > 0.995, odd, pts)
        trace.append(CrowdFrame(frame_id=fid, positions=pts))
    expected = _first_off_grid_person(trace, grid)
    if expected is None:
        check_trace(trace, grid)
    else:
        with pytest.raises(ValueError) as info:
            check_trace(trace, grid)
        assert str(info.value) == expected
    # a person exactly on the far corner is inside
    check_trace([CrowdFrame(frame_id=0, positions=[(ox + ex, oy + ey)])],
                grid)


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


@given(st.integers(1, 25), st.integers(1, 25), st.floats(1e-3, 1e3),
       st.floats(-1e4, 1e4), st.floats(-1e4, 1e4),
       st.integers(0, 2 ** 31 - 1))
@settings(max_examples=300, deadline=None)
def test_peaks_are_cell_centers_by_the_grid_formula(h, w, cs, ox, oy, seed):
    # peaks planted two or more cells apart each survive NMS, in descending
    # value order, at exactly origin + (index + 0.5) * cell_size
    grid = GroundGrid(h, w, cs, origin=(ox, oy))
    rng = np.random.default_rng(seed)
    planted = []
    for i, j in zip(rng.integers(h, size=8), rng.integers(w, size=8)):
        if all(max(abs(i - a), abs(j - b)) >= 2 for a, b in planted):
            planted.append((int(i), int(j)))
    values = np.zeros(grid.shape)
    for (i, j), v in zip(planted, rng.permutation(len(planted)) + 1.0):
        values[i, j] = v
    planted.sort(key=lambda ij: -values[ij])
    got = extract_peaks(DensityMap(values=values), grid, 0.5, 1.0)
    assert got.tolist() == [[ox + (j + 0.5) * cs, oy + (i + 0.5) * cs]
                            for i, j in planted]
