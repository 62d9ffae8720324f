import math

import numpy as np
import pytest

from viewsel import (CameraPose, DegenerateAxisError, GroundGrid,
                     PredictorConfig, Scene, combined_visibility,
                     ground_axis_and_position, project_footprint)
from viewsel.geometry import GridMismatchError

from reference import ref_frame_axes, ref_world_to_cell


def test_grid_basic_properties(small_grid):
    assert small_grid.shape == (40, 40)
    assert small_grid.n_cells == 1600
    assert small_grid.extent_m == (20.0, 20.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        GroundGrid(height_cells=0, width_cells=10)
    with pytest.raises(ValueError):
        GroundGrid(height_cells=10, width_cells=10, cell_size_m=0.0)


def test_cell_centers_match_world_to_cell():
    grid = GroundGrid(height_cells=7, width_cells=9, cell_size_m=0.5,
                      origin=(3.0, -2.0))
    X, Y = grid.cell_centers()
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
    X, Y = grid.cell_centers()
    inside = (np.abs(X - 10.0) <= 10.0) & (np.abs(Y - 10.0) <= 10.0)
    assert (fp.mask == inside).all()


def test_footprint_respects_range_cap(nadir_camera):
    grid = GroundGrid(height_cells=100, width_cells=100, cell_size_m=0.5)
    capped = CameraPose(id="c", position_3d=nadir_camera.position_3d,
                        yaw=0.0, pitch=-math.pi / 2,
                        horizontal_fov_rad=math.pi / 2,
                        vertical_fov_rad=math.pi / 2, max_range_m=5.0)
    fp = project_footprint(capped, grid)
    X, Y = grid.cell_centers()
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
        X, Y = grid.cell_centers()
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


def test_cell_centers_equal_fresh_meshgrid():
    for h, w, cs, origin in ((7, 9, 0.5, (3.0, -2.0)),
                             (1, 13, 0.3, (-1.7, 0.1)),
                             (40, 25, 1.25, (1e3, -2e3))):
        grid = GroundGrid(height_cells=h, width_cells=w, cell_size_m=cs,
                          origin=origin)
        xs = origin[0] + (np.arange(w) + 0.5) * cs
        ys = origin[1] + (np.arange(h) + 0.5) * cs
        got = grid.cell_centers()
        assert grid.cell_centers() is got  # computed once per grid
        for g, want in zip(got, np.meshgrid(xs, ys), strict=True):
            assert np.array_equal(g, want)


def test_cached_constants_are_read_only(small_grid, nadir_camera):
    for arr in small_grid.cell_centers() + nadir_camera.frame_axes():
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert small_grid == GroundGrid(height_cells=40, width_cells=40,
                                    cell_size_m=0.5)
    assert hash(small_grid) == hash(GroundGrid(40, 40, 0.5))


def test_ground_axis_points_along_yaw():
    cam = CameraPose(id="c", position_3d=(1.0, 2.0, 5.0), yaw=0.7,
                     pitch=-0.5, horizontal_fov_rad=1.0,
                     vertical_fov_rad=1.0, max_range_m=10.0)
    axis, pos = ground_axis_and_position(cam)
    assert np.allclose(axis, [math.cos(0.7), math.sin(0.7)])
    assert np.allclose(pos, [1.0, 2.0])


def test_ground_axis_degenerate_for_nadir(nadir_camera):
    with pytest.raises(DegenerateAxisError):
        ground_axis_and_position(nadir_camera)


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


def _camera(**overrides):
    kw = dict(id="c", position_3d=(0.0, 0.0, 5.0), yaw=0.0, pitch=-0.5,
              horizontal_fov_rad=1.0, vertical_fov_rad=1.0, max_range_m=10.0)
    return CameraPose(**{**kw, **overrides})


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
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_FIELDS))
def test_non_finite_parameters_rejected(field, bad):
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_FIELDS[field](bad)


def test_combined_visibility_is_union(demo_scene):
    ids = demo_scene.camera_ids[:3]
    union = demo_scene.visibility_of(ids)
    manual = np.zeros(demo_scene.grid.shape, dtype=bool)
    for cid in ids:
        manual |= demo_scene.footprint(cid).mask
    assert (union == manual).all()


def test_combined_visibility_empty_and_mismatch(small_grid, demo_scene):
    assert not combined_visibility([], small_grid).any()
    other = GroundGrid(height_cells=10, width_cells=10)
    with pytest.raises(GridMismatchError):
        combined_visibility(demo_scene.footprints, other)


def test_scene_rejects_duplicate_ids(small_grid, nadir_camera):
    with pytest.raises(ValueError):
        Scene(grid=small_grid, cameras=[nadir_camera, nadir_camera])


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
