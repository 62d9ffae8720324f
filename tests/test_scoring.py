import itertools
import math

import numpy as np
import pytest

from viewsel import (CameraPose, DensityMap, GroundGrid, Scene,
                     binarize_density, inverse_distance_field, score,
                     score_density, score_geometric, score_mask, score_round,
                     score_scene_coverage, score_view_diversity)
from viewsel.scoring import ALL_TERMS, _RunMemo

from conftest import random_small_scene
from reference import (ref_full_grid_field, ref_score_density,
                       ref_score_geometric, ref_score_mask, ref_totals)

LAM, EPS = 0.1, 1e-10


def _random_density(rng, grid):
    v = rng.uniform(0.0, 1.0, size=grid.shape)
    v[v < 0.6] = 0.0  # sparse, like a crowd map
    return DensityMap(values=v)


def test_geometric_matches_reference_on_random_scenes():
    rng = np.random.default_rng(11)
    for _ in range(15):
        scene = random_small_scene(rng, n_cameras=int(rng.integers(2, 6)))
        k = int(rng.integers(1, len(scene.cameras) + 1))
        cams = [scene.cameras[i]
                for i in rng.choice(len(scene.cameras), size=k, replace=False)]
        got = score_geometric(cams, scene, LAM, EPS)
        _, _, _, want = ref_score_geometric(cams, scene, LAM, EPS)
        assert got.total == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_mask_and_density_match_reference():
    rng = np.random.default_rng(12)
    for _ in range(10):
        scene = random_small_scene(rng, n_cameras=4)
        pred = _random_density(rng, scene.grid)
        cams = scene.cameras[:3]
        got_m = score_mask(cams, scene, pred, "mean", LAM, EPS)
        _, _, _, want_m = ref_score_mask(cams, scene, pred.values, "mean",
                                         LAM, EPS)
        got_d = score_density(cams, scene, pred, "mean", LAM, EPS)
        _, _, _, want_d = ref_score_density(cams, scene, pred.values, "mean",
                                            LAM, EPS)
        assert got_m.total == pytest.approx(want_m, rel=1e-9, abs=1e-12)
        assert got_d.total == pytest.approx(want_d, rel=1e-9, abs=1e-12)


def test_mask_reduces_to_geometric_on_fov_union():
    # binarized region := the FOV union makes the mask score the plain
    # geometric score
    rng = np.random.default_rng(13)
    for _ in range(10):
        scene = random_small_scene(rng, n_cameras=4)
        cams = scene.cameras[:3]
        union = scene.visibility_of([c.id for c in cams])
        pred = DensityMap(values=union.astype(float))
        geo = score_geometric(cams, scene, LAM, EPS)
        msk = score_mask(cams, scene, pred, 0.5, LAM, EPS)
        assert msk.total == pytest.approx(geo.total, rel=1e-12, abs=1e-15)


def test_density_reduces_to_mask_on_unit_density():
    # M_k == 1 on the binarized region makes the density-weighted field the
    # plain inverse-distance field
    rng = np.random.default_rng(14)
    for _ in range(10):
        scene = random_small_scene(rng, n_cameras=4)
        cams = scene.cameras[:3]
        region = _random_density(rng, scene.grid).values > 0
        pred = DensityMap(values=region.astype(float))
        msk = score_mask(cams, scene, pred, 0.5, LAM, EPS)
        den = score_density(cams, scene, pred, 0.5, LAM, EPS)
        assert den.total == pytest.approx(msk.total, rel=1e-12, abs=1e-15)


def test_scene_coverage_counts_cells(small_grid):
    vis = np.zeros(small_grid.shape, dtype=bool)
    vis[:10, :] = True
    assert score_scene_coverage(vis, small_grid) == 0.25


def test_inverse_distance_single_camera(small_grid):
    cam = CameraPose(id="c", position_3d=(0.0, 0.0, 5.0), yaw=0.8,
                     pitch=-0.6, horizontal_fov_rad=1.2,
                     vertical_fov_rad=1.0, max_range_m=30.0)
    scene = Scene(grid=small_grid, cameras=[cam])
    field = inverse_distance_field([cam], scene.footprints, small_grid)
    X, Y = small_grid.cell_centers()
    d = np.maximum(np.hypot(X, Y), small_grid.cell_size_m / 2)
    mask = scene.footprints[0].mask
    assert np.allclose(field[mask], (1.0 / d)[mask])
    assert (field[~mask] == 0.0).all()


def test_distance_floor_guards_singularity():
    grid = GroundGrid(height_cells=4, width_cells=4, cell_size_m=1.0)
    cam = CameraPose(id="c", position_3d=(0.5, 0.5, 3.0), yaw=0.0,
                     pitch=-math.pi / 2, horizontal_fov_rad=2.0,
                     vertical_fov_rad=2.0, max_range_m=10.0)
    scene = Scene(grid=grid, cameras=[cam])
    field = inverse_distance_field([cam], scene.footprints, grid)
    assert np.isfinite(field).all()
    assert field.max() <= 1.0 / (grid.cell_size_m / 2)


def test_view_diversity_bounds_and_extremes():
    def cam(x, y, yaw, cid):
        return CameraPose(id=cid, position_3d=(x, y, 5.0), yaw=yaw,
                          pitch=-0.5, horizontal_fov_rad=1.0,
                          vertical_fov_rad=1.0, max_range_m=10.0)

    # single camera: no pairs, no penalty
    assert score_view_diversity([cam(0, 0, 0.0, "a")]) == 1.0
    # opposing cameras are rewarded (dot < 0 -> factor > 1)
    opposing = score_view_diversity([cam(0, 0, 0.0, "a"),
                                     cam(10, 0, math.pi, "b")])
    aligned = score_view_diversity([cam(0, 0, 0.0, "a"),
                                    cam(10, 0, 0.0, "b")])
    assert opposing > 1.0 > aligned
    # near-twin aligned cameras are punished much harder than distant ones
    twin = score_view_diversity([cam(0, 0, 0.0, "a"), cam(0.5, 0, 0.0, "b")])
    assert twin < aligned


def test_view_diversity_nadir_contributes_zero(nadir_camera):
    side = CameraPose(id="s", position_3d=(0.0, 0.0, 5.0), yaw=0.0,
                      pitch=-0.5, horizontal_fov_rad=1.0,
                      vertical_fov_rad=1.0, max_range_m=10.0)
    assert score_view_diversity([nadir_camera, side]) == 1.0


def test_binarize_modes():
    v = np.array([[0.0, 0.2], [0.4, 0.6]])
    dm = DensityMap(values=v)
    assert (binarize_density(dm, "mean") == (v > 0.3)).all()
    assert (binarize_density(dm, 0.5) == (v > 0.5)).all()
    zero = DensityMap(values=np.zeros((2, 2)))
    assert not binarize_density(zero, "mean").any()


def test_empty_region_yields_zero_total(demo_scene):
    pred = DensityMap(values=np.zeros(demo_scene.grid.shape))
    sb = score_mask(demo_scene.cameras[:2], demo_scene, pred, 0.5)
    assert sb.total == 0.0


def test_term_subset_drops_factors(demo_scene):
    cams = demo_scene.cameras[:3]
    full = score_geometric(cams, demo_scene)
    no_vd = score_geometric(cams, demo_scene, terms=("sc", "ad"))
    assert no_vd.total == pytest.approx(full.s_sc * full.s_ad, rel=1e-12)
    sc_only = score_geometric(cams, demo_scene, terms=("sc",))
    assert sc_only.total == pytest.approx(full.s_sc, rel=1e-12)


def test_combined_total_equals_sum_form(demo_scene):
    # s_sc * s_ad * s_vd telescopes to (sum D / n_cells) * s_vd
    cams = demo_scene.cameras[:3]
    sb = score_geometric(cams, demo_scene)
    field = inverse_distance_field(
        cams, [demo_scene.footprint(c.id) for c in cams], demo_scene.grid)
    union = demo_scene.visibility_of([c.id for c in cams])
    alt = field[union].sum() / demo_scene.grid.n_cells * sb.s_vd
    assert sb.total == pytest.approx(alt, rel=1e-12)


def test_density_weighted_field_scales_with_prediction(demo_scene):
    cams = demo_scene.cameras[:2]
    fps = [demo_scene.footprint(c.id) for c in cams]
    base = np.abs(np.random.default_rng(3).normal(
        size=demo_scene.grid.shape))
    one = inverse_distance_field(cams, fps, demo_scene.grid, base)
    two = inverse_distance_field(cams, fps, demo_scene.grid, 2.0 * base)
    assert np.allclose(two, 2.0 * one)


def _edge_case_scene():
    """A nadir camera straight above a cell center (the distance floor),
    a camera whose footprint is empty, and two oblique cameras."""
    grid = GroundGrid(height_cells=16, width_cells=20, cell_size_m=0.5)

    def cam(cid, x, y, yaw, pitch, max_range=30.0):
        return CameraPose(id=cid, position_3d=(x, y, 4.0), yaw=yaw,
                          pitch=pitch, horizontal_fov_rad=1.2,
                          vertical_fov_rad=1.0, max_range_m=max_range)

    cams = [cam("nadir", 3.25, 2.75, 0.0, -math.pi / 2),
            cam("away", -20.0, -20.0, math.pi * 1.25, -0.4, max_range=5.0),
            cam("a", 0.0, 0.0, 0.6, -0.5),
            cam("b", 10.0, 8.0, math.pi + 0.5, -0.7)]
    return Scene(grid=grid, cameras=cams)


def test_field_equals_full_grid_formula_exactly():
    rng = np.random.default_rng(15)
    edge = _edge_case_scene()
    assert edge.footprint("away").area_cells == 0
    assert edge.footprint("nadir").mask[5, 6]  # the cell under the camera
    scenes = [edge] + [random_small_scene(rng) for _ in range(20)]
    for scene in scenes:
        k = int(rng.integers(1, len(scene.cameras) + 1))
        cams = scene.cameras if scene is edge else [
            scene.cameras[i] for i in rng.permutation(len(scene.cameras))[:k]]
        fps = [scene.footprint(c.id) for c in cams]
        weight = rng.uniform(0.0, 3.0, size=scene.grid.shape)
        weight[rng.random(scene.grid.shape) < 0.3] = 0.0
        for w in (None, weight):
            assert np.array_equal(
                inverse_distance_field(cams, fps, scene.grid, w),
                ref_full_grid_field(cams, fps, scene.grid, w))


def test_wrapper_totals_equal_full_grid_formula_exactly():
    rng = np.random.default_rng(16)
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(20)]
    for scene in scenes:
        cams = scene.cameras[:int(rng.integers(1, len(scene.cameras) + 1))]
        fps = [scene.footprint(c.id) for c in cams]
        pred = _random_density(rng, scene.grid)
        union = scene.visibility_of([c.id for c in cams])
        crowd = binarize_density(pred, "mean")
        for got, region, w in (
                (score_geometric(cams, scene, LAM, EPS), union, None),
                (score_mask(cams, scene, pred, "mean", LAM, EPS), crowd, None),
                (score_density(cams, scene, pred, "mean", LAM, EPS), crowd,
                 pred.values)):
            field = ref_full_grid_field(cams, fps, scene.grid, w)
            want = ref_totals(region, field, got.s_vd, scene.grid)
            assert (got.s_sc, got.s_ad, got.total) == (want[0], want[1],
                                                       want[3])


def test_round_equals_per_group_formula_exactly():
    # every candidate's breakdown equals the from-scratch score of
    # group + [candidate]: full-grid field, totals and diversity
    rng = np.random.default_rng(17)
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(20)]
    for scene in scenes:
        order = [scene.cameras[i] for i in rng.permutation(len(scene.cameras))]
        crowd = rng.random(scene.grid.shape) < 0.4
        weight = rng.uniform(0.0, 3.0, size=scene.grid.shape)
        weight[rng.random(scene.grid.shape) < 0.3] = 0.0
        for k, (variant, region, w) in itertools.product(
                (0, int(rng.integers(1, len(order)))),  # empty group too
                (("geometric", None, None), ("mask", crowd, None),
                 ("density", crowd, weight))):
            group, candidates = order[:k], order[k:]
            got = score_round(group, candidates, scene, region, w, LAM, EPS,
                              variant=variant)
            assert len(got) == len(candidates)
            for cand, sb in zip(candidates, got):
                cams = group + [cand]
                fps = [scene.footprint(c.id) for c in cams]
                scored = (scene.visibility_of([c.id for c in cams])
                          if region is None else region)
                want = ref_totals(scored,
                                  ref_full_grid_field(cams, fps, scene.grid, w),
                                  score_view_diversity(cams, LAM, EPS),
                                  scene.grid)
                assert (sb.s_sc, sb.s_ad, sb.s_vd, sb.total) == want
                assert sb.variant == variant


def test_rounds_sharing_one_memo_equal_per_group_formula_exactly():
    # consecutive greedy rounds of one run share a memo of distances, axes
    # and pair terms while the region and weight change between rounds, as
    # in the active pipeline; every breakdown still equals the from-scratch
    # full-grid formula
    rng = np.random.default_rng(18)
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(10)]
    for scene, variant in itertools.product(
            scenes, ("geometric", "mask", "density")):
        memo = _RunMemo(scene)
        order = [scene.cameras[i] for i in rng.permutation(len(scene.cameras))]
        for k in range(len(order)):
            group, candidates = order[:k], order[k:]
            region = weight = None
            if variant != "geometric":
                region = rng.random(scene.grid.shape) < 0.4
            if variant == "density":
                weight = rng.uniform(0.0, 3.0, size=scene.grid.shape)
            got = memo.score_round(group, candidates, region, weight, LAM,
                                   EPS, ALL_TERMS, variant)
            assert len(got) == len(candidates)
            for cand, sb in zip(candidates, got):
                cams = group + [cand]
                fps = [scene.footprint(c.id) for c in cams]
                scored = (scene.visibility_of([c.id for c in cams])
                          if region is None else region)
                want = ref_totals(scored,
                                  ref_full_grid_field(cams, fps, scene.grid,
                                                      weight),
                                  score_view_diversity(cams, LAM, EPS),
                                  scene.grid)
                assert (sb.s_sc, sb.s_ad, sb.s_vd, sb.total) == want


def test_score_rejects_mismatched_inputs(demo_scene):
    cams = demo_scene.cameras[:2]
    wrong = np.ones((3, 3))
    with pytest.raises(ValueError, match="nonempty"):
        score([], demo_scene)
    with pytest.raises(ValueError, match="region"):
        score(cams, demo_scene, region=wrong > 0)
    with pytest.raises(ValueError, match="weight"):
        score(cams, demo_scene, weight=wrong)
    with pytest.raises(ValueError, match="region"):
        score_density(cams, demo_scene, DensityMap(values=wrong))
