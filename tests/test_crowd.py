import math
import re

import numpy as np
import pytest

from viewsel import (CrowdFrame, DensityMap, GroundGrid, Person,
                     accumulate_density, check_trace, cover_rate,
                     generate_crowd_trace, kernel_table, rasterize_density)
from viewsel.crowd import trace_from_csv, trace_to_csv

from reference import ref_rasterize_density, ref_trace_from_csv


def _frame(points, fid=0):
    return CrowdFrame(frame_id=fid, positions=points)


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), np.zeros(5), np.zeros(4),
                                 np.zeros((1, 1, 2))])
def test_crowd_frame_rejects_non_pairs(small_grid, bad):
    with pytest.raises(ValueError, match="shape"):
        CrowdFrame(frame_id=0, positions=bad)
    with pytest.raises(ValueError, match="shape"):
        kernel_table(bad, small_grid, 1.0)


def test_crowd_frame_positions_are_a_read_only_copy():
    assert CrowdFrame(frame_id=0, positions=[]).positions.shape == (0, 2)
    pts = np.array([[1.0, 2.0], [3.0, 4.5]])
    frame = CrowdFrame(frame_id=0, positions=pts)
    with pytest.raises(ValueError):
        frame.positions[0, 0] = 9.0
    pts[0, 0] = 9.0
    assert frame.positions[0, 0] == 1.0
    # the Person view that readers outside the package use: Python floats
    assert frame.persons == [Person(position=(1.0, 2.0)),
                             Person(position=(3.0, 4.5))]
    assert type(frame.persons[0].position[0]) is float


def test_trace_is_deterministic(small_grid):
    a = generate_crowd_trace(small_grid, 5, (10, 30), 0.8, seed=3)
    b = generate_crowd_trace(small_grid, 5, (10, 30), 0.8, seed=3)
    assert a == b


def test_trace_counts_and_bounds(small_grid):
    trace = generate_crowd_trace(small_grid, 8, (20, 40), 0.5, seed=1)
    assert len(trace) == 8
    ox, oy = small_grid.origin
    ex, ey = small_grid.extent_m
    for frame in trace:
        pos = frame.positions
        assert 20 <= len(pos) <= 40
        assert (pos[:, 0] >= ox).all() and (pos[:, 0] <= ox + ex).all()
        assert (pos[:, 1] >= oy).all() and (pos[:, 1] <= oy + ey).all()


def test_trace_validation(small_grid):
    with pytest.raises(ValueError):
        generate_crowd_trace(small_grid, 0, (1, 2), 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_crowd_trace(small_grid, 1, (5, 2), 0.5, seed=0)
    with pytest.raises(ValueError):
        generate_crowd_trace(small_grid, 1, (1, 2), 1.5, seed=0)


@pytest.mark.parametrize("count_range", [
    (1, 2, 3), (5,), (), 5, None, (1.0, 2), (1, "2")])
def test_trace_refuses_a_count_range_that_is_no_pair(small_grid,
                                                     count_range):
    # a (lo, hi) pair of integers, named when refused
    with pytest.raises(ValueError, match="count_range"):
        generate_crowd_trace(small_grid, 1, count_range, 0.5, seed=0)


def test_density_mass_equals_person_count(small_grid):
    # kernels are renormalized over their in-bounds window, so the unmasked
    # map preserves total mass exactly even for people near the border
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 20.0, size=(37, 2))
    dm = rasterize_density(_frame(pts), small_grid, kernel_sigma_cells=1.0)
    assert dm.total == pytest.approx(37.0, abs=1e-9)


def test_density_empty_frame(small_grid):
    dm = rasterize_density(_frame([]), small_grid, kernel_sigma_cells=1.0)
    assert dm.total == 0.0


def test_density_peak_at_person_cell(small_grid):
    dm = rasterize_density(_frame([(10.25, 5.25)]), small_grid, 1.0)
    i, j = np.unravel_index(np.argmax(dm.values), dm.values.shape)
    assert small_grid.world_to_cell(10.25, 5.25) == (i, j)


def test_density_mask_zeroes_without_renormalizing(small_grid):
    mask = np.zeros(small_grid.shape, dtype=bool)
    mask[:, :20] = True  # left half of the area
    pts = np.array([(5.0, 5.0), (15.0, 15.0)])  # one per half
    table = kernel_table(pts, small_grid, 1.0)
    masked = accumulate_density(table, small_grid, mask=mask)
    unmasked = rasterize_density(_frame(pts), small_grid, 1.0).values
    assert (masked[~mask] == 0.0).all()
    assert np.array_equal(masked[mask], unmasked[mask])
    # the right-half person's mass is dropped, not redistributed
    assert masked.sum() < unmasked.sum()


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0, 2.3])
def test_kernel_table_at_every_edge_and_corner_equals_loop_reference(sigma):
    # window centers at every offset across each edge, in every row and
    # column combination, so each in-bounds block of r_in x c_in cells
    # (0 to 2r+1 each) appears; sigma 2.3 has 21 x 21 = 441-cell windows.
    # Then a person far off the grid, and people exactly on the centers of
    # corner, edge and interior cells: where 4 sigma is a whole number of
    # cells, their windows hold cells exactly 4 sigma away, which count
    r = math.ceil(4.0 * sigma)
    h, w = 2 * r + 4, 2 * r + 9
    grid = GroundGrid(height_cells=h, width_cells=w, cell_size_m=0.5,
                      origin=(-3.25, 10.5))
    rows = [*range(-r - 1, r + 1), *range(h - r - 1, h + r + 1)]
    cols = [*range(-r - 1, r + 1), *range(w - r - 1, w + r + 1)]
    centers = np.array([(j, i) for i in rows for j in cols], dtype=float)
    rng = np.random.default_rng(11)
    cells = centers + 0.5 + rng.uniform(-0.45, 0.45, size=centers.shape)
    on_centers = np.array([(0, 0), (w // 2, 0), (0, h // 2), (w - 1, h - 1),
                           (w // 2, h - 1), (w // 2, h // 2)]) + 0.5
    pts = np.vstack([grid.origin + cells * grid.cell_size_m,
                     [(-1e4, 2e4)],
                     grid.origin + on_centers * grid.cell_size_m])
    frame = CrowdFrame(frame_id=0, positions=pts)
    table = kernel_table(frame.positions, grid, sigma)
    if sigma == 1.0:
        # the interior person's cells within 4 cells of it: 49 of 81
        assert np.count_nonzero(table[1][-1]) == 49
    blocks = set(np.count_nonzero(table[0] < grid.n_cells, axis=1).tolist())
    assert blocks == {a * b for a in range(2 * r + 2)
                      for b in range(2 * r + 2)}
    points = pts.tolist()
    assert np.array_equal(rasterize_density(frame, grid, sigma).values,
                          ref_rasterize_density(points, grid, sigma))
    subset = rng.permutation(len(pts))[:len(pts) // 3]
    mask = rng.random(grid.shape) < 0.7
    assert np.array_equal(
        accumulate_density(table, grid, subset, mask),
        ref_rasterize_density([points[k] for k in subset], grid, sigma,
                              mask=mask))


def test_density_rejects_bad_sigma(small_grid):
    # refused by name before the kernel radius, ceil(4 sigma), is taken,
    # as is every sigma below sqrt(2)/8 cells, whose kernel would miss
    # every cell center from a cell corner, down to sigmas whose
    # 1 / (2 sigma**2) is infinite (1e-160) or divides by zero (1e-200)
    for bad in (0.0, -1.0, math.inf, math.nan, 1e-200, 1e-160, 0.01, 0.17):
        with pytest.raises(ValueError, match="kernel_sigma_cells"):
            rasterize_density(_frame([(1, 1)]), small_grid, bad)


def test_person_at_a_cell_corner_keeps_unit_mass_at_the_smallest_sigma(
        small_grid):
    # (1.0, 1.0) m is a cell corner of the 0.5 m grid, sqrt(0.5) cells from
    # its four nearest centers: the smallest accepted sigma's kernel,
    # truncated at 4 sigma, reaches those four and no other cell
    sigma = math.sqrt(2) / 8
    while (4.0 * math.nextafter(sigma, 0.0)) ** 2 >= 0.5:
        sigma = math.nextafter(sigma, 0.0)
    dm = rasterize_density(_frame([(1.0, 1.0)]), small_grid, sigma)
    assert dm.total == 1.0
    assert np.array_equal(np.argwhere(dm.values),
                          [[1, 1], [1, 2], [2, 1], [2, 2]])
    with pytest.raises(ValueError, match="kernel_sigma_cells"):
        rasterize_density(_frame([(1.0, 1.0)]), small_grid,
                          math.nextafter(sigma, 0.0))


def test_density_map_nonnegative():
    with pytest.raises(ValueError):
        DensityMap(values=np.array([[-0.1]]))


def test_density_map_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        for values in (np.array([[1.0, bad]]), np.full((3, 2), bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                DensityMap(values=values)
    assert DensityMap(values=np.zeros((0, 3))).total == 0.0
    assert DensityMap(values=np.array([[0.0, 1e308]])).total == 1e308


@pytest.mark.parametrize("values", [
    [1.0], [[1.0, 2.0]], np.float64(1.0), 1.0, None, np.ones(3),
    np.ones((2, 2, 1)),
], ids=["list", "nested-list", "numpy-scalar", "float", "none", "1-d",
        "3-d"])
def test_density_map_refuses_values_that_are_no_2d_array(values):
    """A list failed with AttributeError on setflags, and a 0-d value was
    accepted."""
    with pytest.raises(ValueError, match="2-D numpy array"):
        DensityMap(values=values)


def test_seen_filters_by_cell(small_grid):
    vis = np.zeros(small_grid.shape, dtype=bool)
    vis[small_grid.world_to_cell(2.0, 3.0)] = True
    frame = _frame([(2.0, 3.0), (18.0, 18.0)])
    assert frame.seen(vis, small_grid).tolist() == [True, False]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_rejected(small_grid, bad):
    frame = _frame([(2.0, 3.0), (bad, 4.0), (5.0, 5.0)])
    vis = np.ones(small_grid.shape, dtype=bool)
    with pytest.raises(ValueError, match="finite"):
        frame.seen(vis, small_grid)
    with pytest.raises(ValueError, match="finite"):
        rasterize_density(frame, small_grid, 1.0)
    with pytest.raises(ValueError, match="finite"):
        kernel_table(np.array([(1.0, bad)]), small_grid, 1.0)


def test_cover_rate_extremes(small_grid):
    frames = [_frame([(2.0, 3.0), (8.0, 8.0)]), _frame([(5.0, 5.0)], fid=1)]
    full = np.ones(small_grid.shape, dtype=bool)
    none = np.zeros(small_grid.shape, dtype=bool)
    assert cover_rate(frames, full, small_grid) == 1.0
    assert cover_rate(frames, none, small_grid) == 0.0


def test_cover_rate_undefined_without_persons(small_grid):
    with pytest.raises(ValueError, match="no persons in any frame"):
        cover_rate([_frame([])], np.ones(small_grid.shape, bool), small_grid)


def test_trace_csv_round_trip(small_grid, tmp_path):
    trace = generate_crowd_trace(small_grid, 4, (5, 15), 0.6, seed=9)
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    back = trace_from_csv(path)
    assert back == trace


def test_trace_csv_round_trip_keeps_empty_frames(tmp_path):
    trace = [_frame([(1.0, 2.0)], fid=0), _frame([], fid=1),
             _frame([(3.0, 4.0), (5.5, 6.5)], fid=2), _frame([], fid=3)]
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    assert path.read_text().splitlines()[2] == "1,,,"
    back = trace_from_csv(path)
    assert [f.frame_id for f in back] == [0, 1, 2, 3]
    assert back == trace


@pytest.mark.parametrize("text, message", [
    ("frame_id,x_m,y_m\n0,1.0,2.0\n", "lacks columns ['person_idx']"),
    ("frame_id,person_idx,x_m,y_m\n0,0,1.0\n",
     "trace line 2: 3 fields, expected at least 4"),
    ("frame_id,person_idx,x_m,y_m\n0,0,1.0,2.0\n0,1,abc,2.0\n",
     "trace line 3: could not convert string to float: 'abc'"),
    ("frame_id,person_idx,x_m,y_m\n1.5,0,1.0,2.0\n",
     "trace line 2: invalid literal for int() with base 10: '1.5'"),
    ("frame_id,person_idx,x_m,y_m\n0,,,\n0,0,,2.0\n",
     "trace line 3: could not convert string to float: ''"),
], ids=["missing-column", "short-row", "bad-x", "bad-frame-id", "empty-x"])
def test_malformed_trace_csv_is_value_error(tmp_path, text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        trace_from_csv(path)


def test_repeated_trace_column_reads_like_dictreader(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("frame_id,person_idx,x_m,y_m,x_m\n0,0,1.0,2.0,3.0\n")
    assert trace_from_csv(path) == ref_trace_from_csv(path) \
        == [_frame([(3.0, 2.0)])]


def test_trace_csv_is_byte_stable(small_grid, tmp_path):
    trace = generate_crowd_trace(small_grid, 4, (5, 15), 0.6, seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    trace_to_csv(trace, p1)
    trace_to_csv(trace, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_trace_write_leaves_the_earlier_file(tmp_path):
    path = tmp_path / "trace.csv"
    trace_to_csv([_frame([(1.0, 2.0)])], path)
    before = path.read_bytes()
    with pytest.raises(AttributeError):
        trace_to_csv([_frame([(3.0, 4.0)], fid=1), None], path)
    assert path.read_bytes() == before


def test_check_trace_names_the_first_fault_in_trace_order(small_grid):
    # a 40x40 grid of 0.5 m cells: the closed square [0, 20] x [0, 20]
    inside = [(0.0, 0.0), (20.0, 20.0), (20.0, 0.0), (10.0, 5.0)]
    check_trace([_frame(inside), _frame([], fid=3)], small_grid)
    cases = [
        ([_frame(inside), _frame([], fid=0)], "repeated frame id 0"),
        ([_frame(inside), _frame([(30.0, 1.0)], fid=-1)],
         "frame -1: frame id must be >= 0"),
        ([_frame([(1.0, 1.0), (20.0, 20.5), (math.nan, 1.0)], fid=4)],
         "frame 4: person at (20.0, 20.5) outside grid extent"),
        ([_frame([(1.0, 1.0)]), _frame([(-math.inf, 1.0), (-1.0, 1.0)],
                                       fid=2)],
         "frame 2: person at (-inf, 1.0) has a non-finite position"),
    ]
    for trace, message in cases:
        with pytest.raises(ValueError) as info:
            check_trace(trace, small_grid)
        assert str(info.value) == message


def test_check_trace_takes_integer_frame_ids_only(small_grid):
    # an id read from a numpy array stays an id; an integral float does not
    check_trace([_frame([(1.0, 1.0)], fid=np.int64(0)),
                 _frame([], fid=np.int32(2))], small_grid)
    for fid, kind in ((np.float64(2.0), "float64"), (1.5, "float"),
                      (True, "bool"), ("2", "str")):
        with pytest.raises(ValueError) as info:
            check_trace([_frame([(1.0, 1.0)], fid=fid)], small_grid)
        assert str(info.value) == (f"frame {fid}: frame id must be an "
                                   f"integer, not {kind}")
