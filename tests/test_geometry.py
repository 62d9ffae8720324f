import math

import numpy as np
import pytest

from viewsel import (CalibrationState, CameraPose, GroundGrid,
                     PredictorConfig, Scene, project_footprint)
from viewsel.geometry import ground_axis_or_none
from viewsel.synth import generate_scene

from reference import (ref_cell_centers, ref_frame_axes, ref_project_footprint,
                       ref_world_to_cell)


def test_grid_basic_properties(small_grid):
    assert small_grid.shape == (40, 40)
    assert small_grid.n_cells == 1600
    assert small_grid.extent_m == (20.0, 20.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GroundGrid(height_cells=0, width_cells=10)
    with pytest.raises(ValueError):
        GroundGrid(height_cells=10, width_cells=10, cell_size_m=0.0)
    # a wrong type is refused on construction, not on first use
    for kw, what in (({"height_cells": 2.5}, "grid h must be an integer"),
                     ({"width_cells": True}, "grid w must be an integer"),
                     ({"cell_size_m": "0.5"}, "grid cell_size_m must be a"),
                     ({"origin": (0.0, "1")}, "grid origin must be a")):
        with pytest.raises(ValueError, match=what):
            GroundGrid(**{"height_cells": 4, "width_cells": 4, **kw})
    # the extent and the far corner, origin + extent, must be finite
    for kw, what in (({"cell_size_m": 1e308}, "grid extent must be finite"),
                     ({"width_cells": 10 ** 400}, "grid extent is too large"),
                     ({"cell_size_m": 1e307, "origin": (0.0, 1.7e308)},
                      "grid far corner must be finite"),
                     ({"cell_size_m": 1e307, "origin": (1.7e308, 0.0)},
                      "grid far corner must be finite")):
        with pytest.raises(ValueError, match=what):
            GroundGrid(**{"height_cells": 4, "width_cells": 4, **kw})
    # the spare bin h*w of kernel_table must be a valid index; the grid is
    # refused before anything is allocated
    top = np.iinfo(np.intp).max
    for h, w in ((top, 1), (2 ** 62, 2), (10 ** 10, 10 ** 10)):
        with pytest.raises(ValueError,
                           match=f"grid {h}x{w} has more cells than"):
            GroundGrid(height_cells=h, width_cells=w)
    grid = GroundGrid(4, 4, 1e307, origin=(-1.7e308, 1.3e308))
    assert all(np.isfinite(axis).all() for axis in grid.cell_axes())


def test_cell_centers_match_world_to_cell():
    grid = GroundGrid(height_cells=7, width_cells=9, cell_size_m=0.5,
                      origin=(3.0, -2.0))
    X, Y = ref_cell_centers(grid)
    for i in range(grid.height_cells):
        for j in range(grid.width_cells):
            assert grid.world_to_cell(X[i, j], Y[i, j]) == (i, j)


def test_world_to_cell_clamps_out_of_bounds():
    grid = GroundGrid(height_cells=4, width_cells=4, cell_size_m=1.0)
    assert grid.world_to_cell(-5.0, -5.0) == (0, 0)
    assert grid.world_to_cell(99.0, 99.0) == (3, 3)


def test_world_to_cell_arrays_match_scalars():
    grid = GroundGrid(height_cells=7, width_cells=9, cell_size_m=0.5,
                      origin=(3.0, -2.0))
    rng = np.random.default_rng(4)
    xy = rng.uniform(-3.0, 12.0, size=(200, 2))
    i, j = grid.world_to_cell(xy[:, 0], xy[:, 1])
    assert i.shape == j.shape == (200,)
    assert [grid.world_to_cell(x, y) for x, y in xy] == list(zip(i, j))
    assert [ref_world_to_cell(grid, x, y) for x, y in xy] == list(zip(i, j))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_world_to_cell_rejects_non_finite(bad):
    grid = GroundGrid(height_cells=4, width_cells=4, cell_size_m=1.0)
    with pytest.raises(ValueError, match="finite"):
        grid.world_to_cell(bad, 1.0)
    with pytest.raises(ValueError, match="finite"):
        grid.world_to_cell(np.array([1.0, 2.0]), np.array([1.0, bad]))


def test_nadir_footprint_exact_area(nadir_camera):
    # 20 m x 20 m square on a 0.5 m grid -> exactly 1600 cells, and the
    # footprint is symmetric around the camera's ground position
    grid = GroundGrid(height_cells=100, width_cells=100, cell_size_m=0.5)
    fp = project_footprint(nadir_camera, grid)
    assert fp.area_cells == 1600
    X, Y = ref_cell_centers(grid)
    inside = (np.abs(X - 10.0) <= 10.0) & (np.abs(Y - 10.0) <= 10.0)
    assert (fp.mask == inside).all()


def test_footprint_respects_range_cap(nadir_camera):
    grid = GroundGrid(height_cells=100, width_cells=100, cell_size_m=0.5)
    capped = CameraPose(id="c", position_3d=nadir_camera.position_3d,
                        yaw=0.0, pitch=-math.pi / 2,
                        horizontal_fov_rad=math.pi / 2,
                        vertical_fov_rad=math.pi / 2, max_range_m=5.0)
    fp = project_footprint(capped, grid)
    X, Y = ref_cell_centers(grid)
    assert not fp.mask[np.hypot(X - 10.0, Y - 10.0) > 5.0].any()


def test_footprint_matches_pointwise_frustum_test():
    # vectorized rasterization vs an independent per-cell membership check
    rng = np.random.default_rng(42)
    for _ in range(10):
        cam = CameraPose(
            id="c", position_3d=(float(rng.uniform(0, 20)),
                                 float(rng.uniform(0, 20)),
                                 float(rng.uniform(2, 12))),
            yaw=float(rng.uniform(-math.pi, math.pi)),
            pitch=float(rng.uniform(-1.4, -0.1)),
            horizontal_fov_rad=float(rng.uniform(0.5, 2.0)),
            vertical_fov_rad=float(rng.uniform(0.5, 1.5)),
            max_range_m=float(rng.uniform(5, 40)))
        grid = GroundGrid(height_cells=20, width_cells=20, cell_size_m=1.0)
        fp = project_footprint(cam, grid)
        f, r, u = cam.frame_axes()
        X, Y = ref_cell_centers(grid)
        cx, cy, cz = cam.position_3d
        for i in range(20):
            for j in range(20):
                v = np.array([X[i, j] - cx, Y[i, j] - cy, -cz])
                vf = float(v @ f)
                expected = (
                    vf > 0
                    and abs(float(v @ r)) <= math.tan(
                        cam.horizontal_fov_rad / 2) * vf
                    and abs(float(v @ u)) <= math.tan(
                        cam.vertical_fov_rad / 2) * vf
                    and math.hypot(X[i, j] - cx, Y[i, j] - cy)
                    <= cam.max_range_m)
                assert fp.mask[i, j] == expected


def _pose(x, y, *, z=6.0, yaw=0.4, pitch=-0.7, hfov=1.3, vfov=0.9,
          max_range=12.0):
    return CameraPose(id="c", position_3d=(x, y, z), yaw=yaw, pitch=pitch,
                      horizontal_fov_rad=hfov, vertical_fov_rad=vfov,
                      max_range_m=max_range)


def _edge_poses(grid):
    """Poses over, beside and far from the grid: off-grid ones whose range
    box is empty or partial, ranges below one cell and above the grid
    diagonal, straight-down and upward-looking ones."""
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    cs = grid.cell_size_m
    mx, my = ox + ex / 2, oy + ey / 2
    diag = math.hypot(ex, ey)
    ccx = ox + (grid.width_cells // 2 + 0.5) * cs  # a cell center
    ccy = oy + (grid.height_cells // 2 + 0.5) * cs
    poses = [
        _pose(ox - 50.0, my, yaw=0.0, max_range=5.0),       # empty box
        _pose(mx, oy + ey + 40.0, yaw=-1.6, max_range=3.0),  # empty box
        _pose(ox - 3.0, my, yaw=0.0, max_range=8.0),        # partial box
        _pose(ox + ex + 2.0, oy - 2.0, yaw=2.4, max_range=ex / 2),
        _pose(ox - 50.0, oy - 50.0, yaw=0.8, max_range=3 * diag),
        _pose(ccx, ccy, pitch=-math.pi / 2, max_range=cs / 3),
        _pose(ox + cs * 3, oy + cs * 2, pitch=-math.pi / 2,
              max_range=cs / 3),                            # a cell corner
        _pose(mx, my, pitch=-math.pi / 2, max_range=2 * diag),
        _pose(mx, my, pitch=-math.pi / 2, hfov=3.0, vfov=3.0,
              max_range=2 * diag),
        _pose(mx, my, pitch=0.3, max_range=2 * diag),
    ]
    poses += [_pose(mx, my, yaw=yaw, pitch=pitch, max_range=r)
              for yaw in (-math.pi, -2.0, 0.0, 0.7, math.pi / 2)
              for pitch in (-1.5, -0.9, -0.2)
              for r in (cs / 2, 4.0, diag)]
    return poses


@pytest.mark.parametrize("grid", [
    GroundGrid(30, 30, 0.25), GroundGrid(30, 30, 0.37),
    GroundGrid(30, 30, 1.0), GroundGrid(17, 41, 0.37, origin=(-12.5, 3.1)),
    GroundGrid(33, 9, 0.25, origin=(1e3, -2e3)),
    GroundGrid(1, 23, 1.0, origin=(0.5, -7.0))])
def test_footprint_equals_full_grid_reference(grid):
    """The range-box projection has the bits of the full-grid test."""
    covered = 0
    for cam in _edge_poses(grid):
        mask = project_footprint(cam, grid).mask
        assert mask.shape == grid.shape and mask.dtype == bool
        assert np.array_equal(mask, ref_project_footprint(cam, grid)), cam
        covered += bool(mask.any())
    assert covered >= 10  # the poses do see the grid


def test_footprint_equals_full_grid_reference_with_twins():
    grid = GroundGrid(60, 45, 0.37, origin=(4.0, -9.5))
    for seed in range(4):
        scene = generate_scene(10, grid, seed=seed, twin_fraction=0.5,
                               range_frac=(0.05, 1.2))
        for cam, fp in zip(scene.cameras, scene.footprints, strict=True):
            assert np.array_equal(fp.mask, ref_project_footprint(cam, grid))


@pytest.mark.parametrize("seed", [0, 7919])
@pytest.mark.parametrize("cells, n_cameras, seed_offset", [
    (200, 40, 1000),    # the ivs_large benchmark roster
    (120, 24, 3000)])   # the cli_eval_dense benchmark roster
def test_footprint_equals_full_grid_reference_on_benchmark_rosters(
        cells, n_cameras, seed_offset, seed):
    grid = GroundGrid(cells, cells, 0.5)
    scene = generate_scene(n_cameras, grid, seed=seed_offset + seed)
    for cam, fp in zip(scene.cameras, scene.footprints, strict=True):
        assert np.array_equal(fp.mask, ref_project_footprint(cam, grid))


# poses with a cell center of ON_PLANE_GRID within rounding of a side
# plane of the frustum: each hfov is 2 * atan(|vr| / vf), or each vfov
# 2 * atan(|vu| / vf), of one center. They were found by searching drawn
# poses for masks that change when the term named beside the pose sums its
# products in another order
ON_PLANE_GRID = GroundGrid(16, 16, 0.7, origin=(-3.1, 2.3))
ON_PLANE_POSES = [
    # (position, yaw, pitch, hfov, vfov), term
    (((6.225614453718055, 5.715501043873253, 3.675586100950665),
      0.887752357957684, -0.9302712333997736, 0.8884233574656308,
      0.786667768906637), "vf"),
    (((1.5441455127835124, 5.126216004033768, 6.978000145928249),
      0.4640778821813889, -0.4980833712160596, 1.1092939830059851,
      0.413756236419801), "vf"),
    (((4.0339708980002875, -0.07838880584465269, 2.286814667553363),
      3.049585685348907, -0.29596886499450603, 1.0778712106482238,
      0.03370469545822833), "vu"),
    (((4.955261455659491, -2.920892629335994, 7.3056570164949965),
      2.379018857628417, -1.2273092536035177, 1.1360054829837543,
      0.7421524076648224), "vu")]


@pytest.mark.parametrize("pose, term", ON_PLANE_POSES)
def test_footprint_keeps_the_frustum_sum_order(pose, term):
    position, yaw, pitch, hfov, vfov = pose
    cam = CameraPose(id="c", position_3d=position, yaw=yaw, pitch=pitch,
                     horizontal_fov_rad=hfov, vertical_fov_rad=vfov,
                     max_range_m=50.0)
    got = project_footprint(cam, ON_PLANE_GRID).mask
    assert np.array_equal(got, ref_project_footprint(cam, ON_PLANE_GRID))
    # the pose is sharp: summed in another order, term moves a cell across
    # the plane
    assert not np.array_equal(got, ref_project_footprint(
        cam, ON_PLANE_GRID, regrouped=(term,)))
    # right is horizontal (right[2] == 0.0), so vr has one sum in any order
    assert np.array_equal(got, ref_project_footprint(
        cam, ON_PLANE_GRID, regrouped=("vr",)))


def test_frame_axes_orthonormal():
    rng = np.random.default_rng(0)
    for _ in range(50):
        cam = CameraPose(id="c", position_3d=(0.0, 0.0, 5.0),
                         yaw=float(rng.uniform(-4, 4)),
                         pitch=float(rng.uniform(-1.55, 1.55)),
                         horizontal_fov_rad=1.0, vertical_fov_rad=1.0,
                         max_range_m=10.0)
        f, r, u = cam.frame_axes()
        for v in (f, r, u):
            assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)
        assert abs(float(f @ r)) < 1e-12
        assert abs(float(f @ u)) < 1e-12
        assert abs(float(r @ u)) < 1e-12


def test_frame_axes_equal_fresh_transcription(nadir_camera):
    rng = np.random.default_rng(1)
    cams = [nadir_camera] + [
        CameraPose(id="c", position_3d=(0.0, 0.0, 5.0), yaw=yaw,
                   pitch=float(rng.uniform(-1.55, 1.55)),
                   horizontal_fov_rad=1.0, vertical_fov_rad=1.0,
                   max_range_m=10.0)
        for yaw in [math.pi, -math.pi] + list(rng.uniform(-4, 4, size=50))]
    for cam in cams:
        got = cam.frame_axes()
        assert cam.frame_axes() is got  # computed once per pose
        for g, want in zip(got, ref_frame_axes(cam), strict=True):
            assert np.array_equal(g, want)


def test_cell_axes_equal_the_arange_formula():
    for h, w, cs, origin in ((7, 9, 0.5, (3.0, -2.0)),
                             (1, 13, 0.3, (-1.7, 0.1)),
                             (40, 25, 1.25, (1e3, -2e3))):
        grid = GroundGrid(height_cells=h, width_cells=w, cell_size_m=cs,
                          origin=origin)
        got = grid.cell_axes()
        assert grid.cell_axes() is got  # computed once per grid
        want = (origin[0] + (np.arange(w) + 0.5) * cs,
                origin[1] + (np.arange(h) + 0.5) * cs)
        for g, v in zip(got, want, strict=True):
            assert g.dtype == np.float64 and np.array_equal(g, v)
            assert not g.flags.writeable


def test_cached_constants_are_read_only(small_grid, nadir_camera):
    for arr in small_grid.cell_axes() + nadir_camera.frame_axes():
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert small_grid == GroundGrid(height_cells=40, width_cells=40,
                                    cell_size_m=0.5)
    assert hash(small_grid) == hash(GroundGrid(40, 40, 0.5))


def test_ground_axis_points_along_yaw():
    cam = CameraPose(id="c", position_3d=(1.0, 2.0, 5.0), yaw=0.7,
                     pitch=-0.5, horizontal_fov_rad=1.0,
                     vertical_fov_rad=1.0, max_range_m=10.0)
    axis, pos = ground_axis_or_none(cam)
    assert np.allclose(axis, [math.cos(0.7), math.sin(0.7)])
    assert np.allclose(pos, [1.0, 2.0])


def test_ground_axis_degenerate_for_nadir(nadir_camera):
    axis, pos = ground_axis_or_none(nadir_camera)
    assert axis is None
    assert pos.tolist() == list(nadir_camera.ground_position)


def test_camera_validation():
    with pytest.raises(ValueError):
        CameraPose(id="c", position_3d=(0, 0, -1), yaw=0, pitch=-0.5,
                   horizontal_fov_rad=1.0, vertical_fov_rad=1.0,
                   max_range_m=10.0)
    with pytest.raises(ValueError):
        CameraPose(id="c", position_3d=(0, 0, 5), yaw=0, pitch=-0.5,
                   horizontal_fov_rad=4.0, vertical_fov_rad=1.0,
                   max_range_m=10.0)
    with pytest.raises(ValueError, match="position must have 3 entries"):
        CameraPose(id="c", position_3d=(0, 5), yaw=0, pitch=-0.5,
                   horizontal_fov_rad=1.0, vertical_fov_rad=1.0,
                   max_range_m=10.0)
    # a wrong type is refused on construction, not in frame_axes
    for kw, what in (({"id": 3}, "camera id must be a string"),
                     ({"position_3d": (0.0, "0", 5.0)},
                      "camera c position must be a"),
                     ({"yaw": "0.5"}, "camera c yaw must be a"),
                     ({"pitch": None}, "camera c pitch must be a"),
                     ({"horizontal_fov_rad": "1"}, "camera c hfov must be a"),
                     ({"vertical_fov_rad": True}, "camera c vfov must be a"),
                     ({"max_range_m": [10.0]}, "camera c max_range must be")):
        with pytest.raises(ValueError, match=what):
            _camera(**kw)


def _camera(**overrides):
    kw = dict(id="c", position_3d=(0.0, 0.0, 5.0), yaw=0.0, pitch=-0.5,
              horizontal_fov_rad=1.0, vertical_fov_rad=1.0, max_range_m=10.0)
    return CameraPose(**{**kw, **overrides})


def test_grid_and_camera_hold_their_reals_as_floats():
    # an int is read as a float, as from_config reads one
    grid = GroundGrid(4, 4, cell_size_m=1, origin=[0, 2])
    assert grid.cell_size_m == 1.0 and grid.origin == (0.0, 2.0)
    assert all(type(v) is float for v in (grid.cell_size_m, *grid.origin))
    cam = _camera(position_3d=[0, 0, 5], yaw=np.int64(0), max_range_m=10)
    assert cam.position_3d == (0.0, 0.0, 5.0)
    cfg = cam.to_config()
    assert all(type(v) is float for v in (
        *cam.position_3d, *(cfg[k] for k in ("yaw", "pitch", "hfov", "vfov",
                                            "max_range"))))


NON_FINITE_FIELDS = {
    "grid.cell_size_m": lambda v: GroundGrid(4, 4, cell_size_m=v),
    "grid.origin_x": lambda v: GroundGrid(4, 4, origin=(v, 0.0)),
    "grid.origin_y": lambda v: GroundGrid(4, 4, origin=(0.0, v)),
    "camera.x": lambda v: _camera(position_3d=(v, 0.0, 5.0)),
    "camera.y": lambda v: _camera(position_3d=(0.0, v, 5.0)),
    "camera.z": lambda v: _camera(position_3d=(0.0, 0.0, v)),
    "camera.yaw": lambda v: _camera(yaw=v),
    "camera.pitch": lambda v: _camera(pitch=v),
    "camera.max_range_m": lambda v: _camera(max_range_m=v),
    **{f"predictor.{name}": (lambda name: lambda v: PredictorConfig(
        **{name: v}))(name)
       for name in ("position_jitter_m", "count_noise_rel",
                    "kernel_sigma_cells", "q_scale", "distance_falloff_m",
                    "crowding_half")},
    "calibration.labeled_view_frames": lambda v: CalibrationState(
        labeled_view_frames=v),
    "calibration.quality": lambda v: CalibrationState(quality=v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_parameters_rejected(field, bad):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_FIELDS[field](bad)


def test_visibility_of_is_union(demo_scene):
    ids = demo_scene.camera_ids[:3]
    union = demo_scene.visibility_of(ids)
    manual = np.zeros(demo_scene.grid.shape, dtype=bool)
    for cid in ids:
        manual |= demo_scene.footprint(cid).mask
    assert (union == manual).all()


def test_visibility_of_no_cameras_is_all_false(demo_scene):
    union = demo_scene.visibility_of([])
    assert union.shape == demo_scene.grid.shape and union.dtype == bool
    assert not union.any()


def test_scene_rejects_duplicate_ids(small_grid, nadir_camera):
    with pytest.raises(ValueError):
        Scene(grid=small_grid, cameras=[nadir_camera, nadir_camera])


def test_scene_rejects_an_empty_roster(small_grid):
    with pytest.raises(ValueError, match="^scene has no cameras$"):
        Scene(grid=small_grid, cameras=[])
    with pytest.raises(ValueError, match="^scene has no cameras$"):
        Scene.from_config({"grid": small_grid.to_config(), "cameras": []})


def test_scene_lookup_by_id(demo_scene):
    for cam, fp in zip(demo_scene.cameras, demo_scene.footprints):
        assert demo_scene.camera(cam.id) is cam
        assert demo_scene.footprint(cam.id) is fp
    with pytest.raises(KeyError):
        demo_scene.camera("no-such-camera")
    with pytest.raises(KeyError):
        demo_scene.footprint("no-such-camera")


def test_scene_config_round_trip(demo_scene):
    rebuilt = Scene.from_config(demo_scene.to_config())
    assert rebuilt.camera_ids == demo_scene.camera_ids
    for cid in demo_scene.camera_ids:
        assert (rebuilt.footprint(cid).mask
                == demo_scene.footprint(cid).mask).all()
    assert rebuilt.to_config() == demo_scene.to_config()


def test_footprint_mask_read_only(demo_scene):
    fp = demo_scene.footprints[0]
    with pytest.raises(ValueError):
        fp.mask[0, 0] = True


def test_equal_scenes_hash_alike(demo_scene, small_grid, nadir_camera):
    copy = Scene.from_config(demo_scene.to_config())
    assert copy is not demo_scene and copy == demo_scene
    assert hash(copy) == hash(demo_scene)
    assert {demo_scene: "a"}[copy] == "a"
    # a roster given as a list is held as a tuple
    scene = Scene(small_grid, [nadir_camera])
    assert scene.cameras == (nadir_camera,)
    assert len({scene, Scene(small_grid, (nadir_camera,)), demo_scene}) == 2


@pytest.mark.parametrize("range_frac", [
    (0.5,), (), (0.2, 0.5, 0.9), (0.9, 0.2), (0.0, 0.5), (-0.1, 0.5), 0.5,
    None, (0.5, 1e308)])
def test_generate_scene_refuses_a_range_frac_that_is_no_pair(range_frac):
    # a (lo, hi) pair with 0 < lo <= hi whose ranges on the grid are
    # finite, named when refused
    with pytest.raises(ValueError, match="range_frac"):
        generate_scene(3, GroundGrid(20, 20, 1.0), seed=0,
                       range_frac=range_frac)


def test_generate_scene_draws_ranges_from_range_frac():
    grid = GroundGrid(20, 20, 1.0)
    scene = generate_scene(3, grid, seed=0, range_frac=(0.4, 0.4))
    assert {c.max_range_m for c in scene.cameras} == {
        math.hypot(*grid.extent_m) * 0.4}
