import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsel import (DensityMap, GroundGrid, counting_metrics, extract_peaks,
                     localization_metrics, match_points)

from reference import (ref_extract_peaks, ref_match_points,
                       ref_match_points_linalg)


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
    m, fp, fn = match_points([], [(1.0, 1.0)], 0.5)
    assert m == [] and fp == [] and fn == [0]
    m, fp, fn = match_points([(1.0, 1.0)], [], 0.5)
    assert m == [] and fp == [0] and fn == []


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
def point_sets(draw):
    """Predictions and GT of up to 120 x 400 points: half on a 0.25 m
    lattice (coincident points, pairs at exactly 0.5 m and 1.25 m), half
    uniform, some predictions copied from GT."""
    n = draw(st.integers(0, 120))
    m = draw(st.integers(0, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    extent = draw(st.sampled_from([2.0, 6.0, 20.0]))

    def points(k):
        lattice = rng.integers(0, int(extent * 4) + 1, size=(k, 2)) * 0.25
        uniform = rng.uniform(0.0, extent, size=(k, 2))
        return np.where(rng.random((k, 1)) < 0.5, lattice, uniform)

    gt = points(m)
    pred = points(n)
    if n and m:
        copied = rng.random(n) < 0.2
        pred[copied] = gt[rng.integers(0, m, size=int(copied.sum()))]
    return [tuple(p) for p in pred.tolist()], [tuple(g) for g in gt.tolist()]


@given(point_sets(), st.sampled_from([0.25, 0.5, 1.0, 1.25, 0.7]))
@settings(max_examples=60, deadline=None)
def test_match_points_equals_linalg_reference(data, threshold):
    pred, gt = data
    assert match_points(pred, gt, threshold) \
        == ref_match_points_linalg(pred, gt, threshold)


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
    # inf - inf warns, and the NaN distance it gives never matches
    for p, g in ((pred, gt), (gt, pred)):
        with np.errstate(invalid="ignore"):
            assert match_points(p, g, threshold) \
                == ref_match_points_linalg(p, g, threshold)
