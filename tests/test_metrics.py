import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viewsel.metrics
from viewsel import (CalibrationState, DensityMap, GroundGrid,
                     PredictorConfig, counting_metrics, extract_peaks,
                     generate_crowd_trace, generate_scene,
                     localization_metrics, match_points, noisy_predict)

from reference import (ref_extract_peaks, ref_match_points,
                       ref_match_points_linalg, ref_optimal_matchings)


def test_counting_metrics_basic():
    rep = counting_metrics([10.0, 20.0], [12.0, 16.0])
    assert rep.mae == pytest.approx(3.0)
    assert rep.mse == pytest.approx(math.sqrt((4 + 16) / 2))
    assert rep.nae == pytest.approx((2 / 12 + 4 / 16) / 2)
    assert rep.n_frames == 2


def test_counting_metrics_skips_zero_gt_in_nae():
    rep = counting_metrics([3.0, 5.0], [0.0, 5.0])
    assert rep.mae == pytest.approx(1.5)
    assert rep.nae == pytest.approx(0.0)


def test_counting_metrics_validation():
    with pytest.raises(ValueError):
        counting_metrics([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        counting_metrics([], [])


@pytest.mark.parametrize("predicted, gt, message", [
    ([math.nan], [1.0], "predicted_counts[0] is nan"),
    ([1.0], [math.inf], "gt_counts[0] is inf"),
    ([1.0, 2.0, -math.inf], [1.0, 2.0, 3.0], "predicted_counts[2] is -inf"),
    ([1.0, 2.0], [3.0, -1.0], "gt_counts[1] is -1.0"),
    ([-0.5], [0.0], "predicted_counts[0] is -0.5"),
])
def test_counting_metrics_refuses_a_count_that_is_no_count(predicted, gt,
                                                            message):
    """A non-finite or negative count would give a nan or inf error, with a
    RuntimeWarning for nan; it is refused by list and frame index."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape(message)):
            counting_metrics(predicted, gt)


def test_nine_tp_one_fp_one_fn_oracle():
    # 10 GT points; 9 predictions sit on the first 9, one prediction is far
    # from everything -> 9 TP, 1 FP, 1 FN
    gt = [(float(i), 0.0) for i in range(10)]
    pred = [(float(i), 0.0) for i in range(9)] + [(50.0, 50.0)]
    matches, fp, fn = match_points(pred, gt, threshold_m=0.5)
    rep = localization_metrics(matches, len(fp), len(fn), len(gt),
                               threshold_m=0.5)
    assert (rep.tp, rep.fp, rep.fn) == (9, 1, 1)
    assert rep.moda == pytest.approx(0.8)
    assert rep.precision == pytest.approx(0.9)
    assert rep.recall == pytest.approx(0.9)
    assert rep.f1 == pytest.approx(0.9)
    assert rep.modp == pytest.approx(1.0)  # all matches at distance zero


def test_match_points_prefers_more_matches_over_shorter_total():
    # greedy nearest-first would match pred0-gt0 and strand pred1; the
    # assignment must find the 2-match solution instead
    pred = [(0.0, 0.0), (0.4, 0.0)]
    gt = [(0.3, 0.0), (0.45, 0.0)]
    matches, fp, fn = match_points(pred, gt, threshold_m=0.5)
    assert len(matches) == 2 and not fp and not fn


def test_match_points_respects_threshold():
    matches, fp, fn = match_points([(0.0, 0.0)], [(1.0, 0.0)],
                                   threshold_m=0.5)
    assert not matches and fp == [0] and fn == [0]


def test_match_points_empty_sides():
    # no point at all may come in any shape
    for empty in ([], np.zeros((0, 2)), np.zeros((0, 3)), np.zeros(0)):
        m, fp, fn = match_points(empty, [(1.0, 1.0)], 0.5)
        assert m == [] and fp == [] and fn == [0]
        m, fp, fn = match_points([(1.0, 1.0)], empty, 0.5)
        assert m == [] and fp == [0] and fn == []


def test_match_points_star_matches_the_nearest_partner():
    # one prediction whose gt partners touch nothing else: the solver's
    # row reduction gives it the nearest, not the first in index or x
    # order, and an equally near partner loses to the lower index. Then
    # the same star centred on a gt point, whose matrix is transposed so
    # that the gt point is its one row
    pred = [(0.0, 0.0), (9.0, 9.0)]
    gt = [(-0.4, 0.0), (0.3, 0.0), (0.2, 0.0), (0.0, 0.2), (0.0, -0.45)]
    assert match_points(pred, gt, 0.5) == ([(0, 2, 0.2)], [1], [0, 1, 3, 4])
    assert match_points(gt, pred, 0.5) == ([(2, 0, 0.2)], [0, 1, 3, 4], [1])


def test_match_points_augments_a_star_that_row_reduction_leaves(
        monkeypatch):
    # gt point g0 within 0.5 m of two predictions, p0 at 0.4 m and p1 at
    # 0.3 m, next to a prediction p2 with two gt partners: three rows and
    # three columns, so g0 is a column. Row reduction gives g0 to p0, the
    # lower index, and only an augmentation from p1 hands it to the nearer
    # p1. Then the same points with the sides swapped, where g1 and g2
    # both start on p2
    pred = [(-0.4, 0.0), (0.3, 0.0), (5.0, 0.0)]
    gt = [(0.0, 0.0), (5.2, 0.0), (5.0, 0.45)]
    assign = viewsel.metrics._assign
    unsettled = []

    def counting_assign(cost):
        unsettled.append(len(cost) - len(np.unique(cost.argmin(axis=1))))
        return assign(cost)

    monkeypatch.setattr(viewsel.metrics, "_assign", counting_assign)
    for p, g, nearest in ((pred, gt, (1, 0)), (gt, pred, (1, 2))):
        matches, fp, fn = match_points(p, g, 0.5)
        assert unsettled.pop() == 1
        want, _, _ = ref_match_points_linalg(p, g, 0.5)
        pairs = [(i, j) for i, j, _ in matches]
        assert nearest in pairs and len(matches) == len(want) == 2
        assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == 2
        assert all(d <= 0.5 for _, _, d in matches)
        assert math.fsum(d for _, _, d in matches) \
            == math.fsum(d for _, _, d in want)
        assert len(fp) == len(fn) == 1


def test_assign_refuses_more_rows_than_columns():
    # the third row would search forever for a free column
    with pytest.raises(ValueError, match="3 rows to 2 columns"):
        viewsel.metrics._assign(np.zeros((3, 2)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_match_points_on_evaluate_traffic_equals_linalg_reference(seed):
    # peaks of noisy predictions on a 0.5 m grid, matched under evaluate's
    # defaults (0.5 m threshold, NMS radius 2 cells, peak floor 0.05):
    # accepted peaks lie more than 1 m apart, so no person is within the
    # threshold of two peaks, and the matches equal scipy's exactly
    grid = GroundGrid(height_cells=60, width_cells=60, cell_size_m=0.5)
    scene = generate_scene(8, grid, seed=seed)
    trace = generate_crowd_trace(grid, 4, (150, 250), 0.3, seed=seed)
    config = PredictorConfig(miss_rate=0.3, position_jitter_m=0.4,
                             count_noise_rel=0.2, seed=seed,
                             calibration=CalibrationState(quality=0.5))
    ids = scene.camera_ids[:5]
    seen = scene.visibility_of(ids)
    matched = 0
    for frame in trace:
        pred = noisy_predict(frame, seen, scene, config, selected_ids=ids)
        peaks = extract_peaks(pred, grid, 0.05, 2.0)
        gt = frame.positions
        near = np.linalg.norm(peaks[:, None] - gt[None], axis=2) <= 0.5
        assert near.sum(axis=0).max() <= 1
        got = match_points(peaks, gt, 0.5)
        assert got == ref_match_points_linalg(peaks, gt, 0.5)
        matched += len(got[0])
    assert matched > 200


def test_match_points_solves_a_general_component_exactly():
    # a path p0 - g0 - p1 - g1 at 0.4, 0.3, 0.4 with p0 - g1 at 1.1: the
    # shortest pair, p1 - g0, is in no optimal matching; the optimum, p0 -
    # g0 and p1 - g1, totals 0.8 against 1.4. A third point on each side
    # joins the component, so no prediction and no gt point is a star
    pred = [(0.0, 0.0), (0.7, 0.0), (3.0, 0.0)]
    gt = [(0.4, 0.0), (1.1, 0.0), (2.0, 0.0)]
    for p, g in ((pred, gt), (gt, pred)):
        matches, fp, fn = match_points(p, g, 1.5)
        assert [(i, j) for i, j, _ in matches] == [(0, 0), (1, 1), (2, 2)]
        assert math.fsum(d for _, _, d in matches) \
            == pytest.approx(0.8 + 1.0)
        assert fp == [] and fn == []
    # the same path with a gt point 1.0 from p0 in place of p2: the
    # greedy p1 - g0 then p0 - g2 totals 1.3 against 0.8, with more gt
    # points than predictions and then more predictions than gt
    pred = [(0.0, 0.0), (0.7, 0.0)]
    gt = [(0.4, 0.0), (1.1, 0.0), (-1.0, 0.0)]
    for p, g in ((pred, gt), (gt, pred)):
        matches, _, _ = match_points(p, g, 1.5)
        assert [[(i, j) for i, j, _ in matches]] \
            == ref_optimal_matchings(p, g, 1.5)
        assert math.fsum(d for _, _, d in matches) == pytest.approx(0.8)


def test_match_points_never_matches_non_finite_coordinates():
    bad = [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
           (-math.inf, 0.0), (math.inf, math.inf), (0.0, -math.inf)]
    with np.errstate(invalid="ignore"):
        for b in bad:
            assert match_points([b], [(0.0, 0.0)], 0.5) == ([], [0], [0])
            assert match_points([(0.0, 0.0)], [b], 0.5) == ([], [0], [0])
            assert match_points([b], [b], 0.5) == ([], [0], [0])
    for p, g in ((bad + [(1.0, 1.0)], bad + [(1.0, 1.2)]),
                 ([(1.0, 1.0)] + bad, [(1.0, 1.2)] + bad)):
        with np.errstate(invalid="ignore"):
            matches, fp, fn = match_points(p, g, 0.5)
        at = 6 if p[0] is bad[0] else 0
        assert [(i, j) for i, j, _ in matches] == [(at, at)]
        assert fp == fn == [k for k in range(7) if k != at]


@pytest.mark.parametrize("bad", [
    [(0.0,)], [(0.0, 0.0, 0.0)], [(0.0, 0.0), (1.0,)],
    [(0.0, 0.0), (1.0, 1.0, 1.0)], [0.0, 1.0], [[]], [[(0.0, 0.0)]]])
def test_match_points_rejects_points_that_are_not_k_by_2(bad):
    for pred, gt in ((bad, [(0.0, 0.0)]), ([(0.0, 0.0)], bad),
                     (bad, []), ([], bad)):
        with pytest.raises(ValueError, match=r"\(k, 2\) points"):
            match_points(pred, gt, 0.5)


def test_match_points_equals_exhaustive_oracle():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))
        pred = [tuple(p) for p in rng.uniform(0, 4, size=(n, 2))]
        gt = [tuple(p) for p in rng.uniform(0, 4, size=(m, 2))]
        matches, _, _ = match_points(pred, gt, threshold_m=1.0)
        k_ref, dist_ref = ref_match_points(pred, gt, 1.0)
        assert len(matches) == k_ref
        assert sum(d for _, _, d in matches) == pytest.approx(dist_ref,
                                                              abs=1e-9)


def test_localization_metrics_zero_gt_rejected():
    with pytest.raises(ValueError):
        localization_metrics([], 0, 0, 0, 0.5)


@pytest.mark.parametrize("matches, fp, fn, gt_total, message", [
    ([], -1, 0, 1, "fp and fn must be non-negative"),
    ([], 0, -1, 1, "fp and fn must be non-negative"),
    ([], 0, 5, 1, "0 matches and fn=5 do not add up to gt_total=1"),
    ([(0, 0, 0.1)], 0, 1, 1, "1 matches and fn=1 do not add up"),
    ([(0, 0, 0.1)], 0, 0, 3, "1 matches and fn=0 do not add up"),
])
def test_localization_metrics_refuses_counts_no_matching_gives(
        matches, fp, fn, gt_total, message):
    """Such counts gave a MODA above 1 or below -1 and a precision of -0.0."""
    with pytest.raises(ValueError, match=re.escape(message)):
        localization_metrics(matches, fp, fn, gt_total, 0.5)


def test_localization_metrics_keeps_the_zero_gt_refusal_first():
    with pytest.raises(ValueError,
                       match="MODA undefined for zero ground-truth points"):
        localization_metrics([], -1, 0, 0, 0.5)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_localization_metrics_rejects_bad_threshold(bad):
    # a threshold that match_points refuses would divide by zero or give
    # MODP outside [0, 1]
    with pytest.raises(ValueError, match="threshold_m"):
        localization_metrics([(0, 0, 0.1)], 0, 0, 1, bad)


def _exact_peaks(density, grid, min_value, nms_radius_cells):
    """extract_peaks as a list of (x, y), once it is checked to be an
    (n, 2) float array holding the bits of ref_extract_peaks in order."""
    got = extract_peaks(density, grid, min_value, nms_radius_cells)
    want = ref_extract_peaks(density, grid, min_value, nms_radius_cells)
    assert got.dtype == np.float64 and got.shape == (len(want), 2)
    assert got.tobytes() == np.array(want, float).reshape(-1, 2).tobytes()
    return [tuple(p) for p in got.tolist()]


def test_extract_peaks_finds_separated_maxima():
    grid = GroundGrid(height_cells=20, width_cells=20, cell_size_m=1.0)
    v = np.zeros(grid.shape)
    v[5, 5] = 1.0
    v[15, 12] = 0.8
    peaks = _exact_peaks(DensityMap(values=v), grid, min_value=0.1,
                         nms_radius_cells=2.0)
    assert set(peaks) == {(5.5, 5.5), (12.5, 15.5)}


def test_extract_peaks_nms_suppresses_neighbors():
    grid = GroundGrid(height_cells=10, width_cells=10, cell_size_m=1.0)
    v = np.zeros(grid.shape)
    v[4, 4] = 1.0
    v[4, 5] = 0.9  # adjacent, lower: suppressed by NMS
    peaks = _exact_peaks(DensityMap(values=v), grid, 0.1, 2.0)
    assert peaks == [(4.5, 4.5)]


def test_extract_peaks_min_value_filters():
    grid = GroundGrid(height_cells=5, width_cells=5, cell_size_m=1.0)
    v = np.zeros(grid.shape)
    v[2, 2] = 0.05
    assert _exact_peaks(DensityMap(values=v), grid, 0.1, 2.0) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
def test_match_points_rejects_bad_threshold(bad):
    with pytest.raises(ValueError, match="threshold_m"):
        match_points([(0.0, 0.0)], [(0.0, 0.0)], threshold_m=bad)
    with pytest.raises(ValueError, match="threshold_m"):
        match_points([], [], threshold_m=bad)


@pytest.mark.parametrize("min_value, radius", [
    (0.1, math.nan), (0.1, math.inf), (0.1, 0.5),
    (math.nan, 2.0), (math.inf, 2.0), (-math.inf, 2.0)])
def test_extract_peaks_rejects_bad_parameters(min_value, radius):
    grid = GroundGrid(height_cells=5, width_cells=5, cell_size_m=1.0)
    v = np.zeros(grid.shape)
    v[2, 2] = 1.0
    with pytest.raises(ValueError, match="finite"):
        extract_peaks(DensityMap(values=v), grid, min_value, radius)


def test_extract_peaks_rejects_a_density_off_the_grid():
    grid = GroundGrid(height_cells=5, width_cells=5, cell_size_m=1.0)
    for shape in ((5, 6), (4, 5)):
        v = np.zeros(shape)
        v[2, 2] = 1.0
        with pytest.raises(ValueError, match="density does not match grid"):
            extract_peaks(DensityMap(values=v), grid, 0.1, 2.0)


def test_extract_peaks_suppresses_at_exactly_the_radius():
    grid = GroundGrid(height_cells=9, width_cells=9, cell_size_m=1.0)
    v = np.zeros(grid.shape)
    v[4, 2] = 1.0
    v[4, 6] = 0.9  # 4 cells away: kept by radius 3.5, suppressed by 4
    v[1, 2] = 0.8  # 3 cells away: suppressed by both
    assert _exact_peaks(DensityMap(values=v), grid, 0.1, 3.5) \
        == [(2.5, 4.5), (6.5, 4.5)]
    assert _exact_peaks(DensityMap(values=v), grid, 0.1, 4.0) \
        == [(2.5, 4.5)]


def test_extract_peaks_suppressed_peak_suppresses_nothing():
    # a chain of peaks 2 cells apart in falling value order: each accepted
    # peak suppresses the next one, and the suppressed peak leaves the one
    # after it, outside the accepted peak's disk, to be accepted
    grid = GroundGrid(height_cells=5, width_cells=11, cell_size_m=1.0)
    v = np.zeros(grid.shape)
    v[2, [1, 3, 5, 7, 9]] = [1.0, 0.9, 0.8, 0.7, 0.6]
    assert _exact_peaks(DensityMap(values=v), grid, 0.1, 2.0) \
        == [(1.5, 2.5), (5.5, 2.5), (9.5, 2.5)]
    # at a radius of 4 cells the first peak suppresses the next two; the
    # fourth, whose rivals are those two, is accepted and suppresses the last
    assert _exact_peaks(DensityMap(values=v), grid, 0.1, 4.0) \
        == [(1.5, 2.5), (7.5, 2.5)]


# radii with no lattice point exactly on the circle, and radii with some;
# sqrt(5) squares to just above 5 in floating point
RADII = [1.0, 1.5, 2.0, 2.5, math.sqrt(2.0), math.sqrt(5.0), 3.0, 4.5, 7.0]


@st.composite
def density_maps(draw):
    """Small maps of a few distinct levels: plateaus, exact ties and equal
    peaks at every distance are common."""
    h = draw(st.integers(1, 14))
    w = draw(st.integers(1, 14))
    levels = draw(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0,
                                            1e-300, 7.0]),
                           min_size=1, max_size=4))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    values = np.array(levels)[rng.integers(0, len(levels), size=(h, w))]
    origin = draw(st.sampled_from([(0.0, 0.0), (-3.25, 10.5)]))
    cell = draw(st.sampled_from([0.5, 1.0, 0.3]))
    return GroundGrid(height_cells=h, width_cells=w, cell_size_m=cell,
                      origin=origin), DensityMap(values=values)


@given(density_maps(), st.sampled_from(RADII),
       st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 5.0]))
@settings(max_examples=400, deadline=None)
def test_extract_peaks_equals_loop_reference(data, radius, min_value):
    grid, density = data
    _exact_peaks(density, grid, min_value, radius)


@st.composite
def point_sets(draw, lattice: bool):
    """Predictions and GT of up to 120 x 400 points, some predictions
    copied from GT. Uniform sets (lattice False) copy each GT point at most
    once and have no equal-cost ties. Lattice sets put half of the points
    on a 0.25 m lattice (coincident points, pairs at exactly 0.5 m and
    1.25 m), where equal-cost optima are common."""
    n = draw(st.integers(0, 120))
    m = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    extent = draw(st.sampled_from([2.0, 6.0, 20.0]))

    def points(k):
        uniform = rng.uniform(0.0, extent, size=(k, 2))
        if not lattice:
            return uniform
        on_lattice = rng.integers(0, int(extent * 4) + 1, size=(k, 2)) * 0.25
        return np.where(rng.random((k, 1)) < 0.5, on_lattice, uniform)

    gt = points(m)
    pred = points(n)
    if n and m:
        copied = (rng.random(n) < 0.2).nonzero()[0][:m]
        pred[copied] = gt[rng.choice(m, size=len(copied),
                                     replace=lattice)]
    return [tuple(p) for p in pred.tolist()], [tuple(g) for g in gt.tolist()]


def _assert_same_optimum(pred, gt, threshold):
    """match_points against ref_match_points_linalg where the two may pick
    different equal-cost optima: the same match, fp and fn counts, a
    one-to-one matching by prediction index within threshold at the linalg
    distances, and the same matched total up to summation rounding."""
    got, fp, fn = match_points(pred, gt, threshold)
    want, want_fp, want_fn = ref_match_points_linalg(pred, gt, threshold)
    assert (len(got), len(fp), len(fn)) \
        == (len(want), len(want_fp), len(want_fn))
    got_p = [i for i, _, _ in got]
    got_g = [j for _, j, _ in got]
    assert got_p == sorted(set(got_p)) and len(set(got_g)) == len(got_g)
    assert sorted(got_p + fp) == list(range(len(pred)))
    assert sorted(got_g + fn) == list(range(len(gt)))
    if got:
        p = np.asarray(pred, dtype=float)
        q = np.asarray(gt, dtype=float)
        dist = np.linalg.norm(p[:, None, :] - q[None, :, :], axis=2)
        assert all(d <= threshold and d == dist[i, j] for i, j, d in got)
    assert math.isclose(math.fsum(d for _, _, d in got),
                        math.fsum(d for _, _, d in want),
                        rel_tol=1e-12, abs_tol=1e-12 * threshold)


@given(point_sets(lattice=False), st.sampled_from([0.25, 0.5, 1.0, 1.25,
                                                   0.7]))
@settings(max_examples=60, deadline=None)
def test_match_points_equals_linalg_reference(data, threshold):
    pred, gt = data
    assert match_points(pred, gt, threshold) \
        == ref_match_points_linalg(pred, gt, threshold)


@given(point_sets(lattice=True), st.sampled_from([0.25, 0.5, 1.0, 1.25,
                                                  0.7]))
@settings(max_examples=60, deadline=None)
def test_match_points_on_a_lattice_finds_a_linalg_optimum(data, threshold):
    _assert_same_optimum(*data, threshold)


def _window_edge_cases():
    """(predicted, gt, threshold_m) on the edges of the candidate window:
    |dx| exactly at the threshold and at twice it, coordinates near 1e6
    whose differences round (or that a tiny threshold does not move), a dx
    that rounds down to the threshold, thresholds so small that squares
    underflow to 0, and NaN and infinite coordinates."""
    up = np.nextafter
    big = 1e6
    ulp = up(big, np.inf) - big
    cases = [
        ([(1.0, 2.0), (3.0, 2.0)],
         [(1.5, 2.0), (0.5, 2.0), (2.0, 2.0), (4.0, 2.0), (3.5, 2.25)], 0.5),
        ([(0.0, 0.0)], [(0.5, 0.0), (-0.5, 0.0), (up(0.5, 1), 0.0),
                        (up(-0.5, -1), 0.0), (up(1.0, 0), 0.0),
                        (up(1.0, 2), 0.0), (1.0, 0.0)], 0.5),
        ([(big, 0.0), (up(big, np.inf), 0.0)],
         [(big + k * ulp, 0.0) for k in (-2, -1, 0, 1, 2, 3)], ulp),
        ([(big, 0.0), (big + 3 * ulp, 1.0)],
         [(big + k * ulp, 1.0) for k in range(-3, 6)], 1.5 * ulp),
        ([(big + 0.25, big), (big, big + 0.5)],
         [(big + 0.75, big), (big + 0.5, big + 0.5), (big, big + 1.0)],
         0.5),
        ([(big, 0.0), (big, 1.0)], [(big, 0.0), (big, 1e-13),
                                    (up(big, 0), 1.0)], 1e-12),
        ([(1.0, 0.0), (2.0, 5.0)], [(-1e-17, 0.0), (3.0 + 4e-16, 5.0)],
         1.0),
        ([(0.0, 0.0), (1e-170, 5e-171), (1e-160, 1.0)],
         [(3e-170, 0.0), (1e-160, 0.0), (1e-140, 0.0), (0.0, 1.0)], 1e-300),
        ([(0.0, 0.0), (3e-13, 0.0)], [(1e-12, 0.0), (2e-12, 0.0),
                                      (4e-13, 1e-13)], 1e-12),
        ([(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
          (-math.inf, 0.0), (0.0, math.inf), (0.0, 0.0)],
         [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
          (0.0, -math.inf), (0.0, 0.0), (0.25, 0.0)], 0.5),
        ([(math.inf, math.inf), (1.0, 1.0)],
         [(math.inf, math.inf), (math.nan, math.nan), (1.0, 1.25)], 0.5),
    ]
    return [([tuple(map(float, p)) for p in pred],
             [tuple(map(float, g)) for g in gt], float(t))
            for pred, gt, t in cases]


@pytest.mark.parametrize("pred, gt, threshold", _window_edge_cases())
def test_match_points_window_edges_equal_linalg_reference(pred, gt,
                                                          threshold):
    # each case also in reverse, so the window runs over either side;
    # inf - inf warns, and the NaN distance it gives never matches. Where
    # the optimum is unique the match list is the linalg reference's;
    # where equal-cost optima tie (pairs at exactly the threshold, squares
    # that underflow to 0), it is one of them
    for p, g in ((pred, gt), (gt, pred)):
        with np.errstate(invalid="ignore"):
            optima = ref_optimal_matchings(p, g, threshold)
            got = match_points(p, g, threshold)
            assert [(i, j) for i, j, _ in got[0]] in optima
            if len(optima) == 1:
                assert got == ref_match_points_linalg(p, g, threshold)
            else:
                _assert_same_optimum(p, g, threshold)
