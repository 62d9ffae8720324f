import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from viewsel import (CameraPose, DensityMap, GroundGrid, Scene,
                     binarize_density, generate_scene, score_round)
from viewsel import scoring as scoring_module
from viewsel.scoring import ALL_TERMS, _Round, round_scorer

from conftest import random_small_scene
from reference import (ref_cell_centers, ref_diversity, ref_full_grid_field,
                       ref_score_density, ref_score_geometric, ref_score_mask,
                       ref_totals, ref_union_overlap)

LAM, EPS = 0.1, 1e-10


def _random_density(rng, grid):
    v = rng.uniform(0.0, 1.0, size=grid.shape)
    v[v < 0.6] = 0.0  # sparse, like a crowd map
    return DensityMap(values=v)


def _ids(cams):
    return [c.id for c in cams]


def _round(scene, weight=None):
    """An empty round whose field has unit weight (the geometric strategy)
    or weight (the density strategy, with weight as its prediction)."""
    if weight is None:
        return _Round(scene, "geometric", None, "mean", ALL_TERMS)
    return _Round(scene, "density", DensityMap(values=weight), "mean",
                  ALL_TERMS)


def _field(ids, scene, weight=None):
    """The distance field of the group ids, as a round builds it."""
    rnd = _round(scene, weight)
    for cid in ids:
        rnd.advance(cid)
    return rnd.field


def test_geometric_matches_reference_on_random_scenes():
    rng = np.random.default_rng(11)
    for _ in range(15):
        scene = random_small_scene(rng, n_cameras=int(rng.integers(2, 6)))
        k = int(rng.integers(1, len(scene.cameras) + 1))
        cams = [scene.cameras[i]
                for i in rng.choice(len(scene.cameras), size=k, replace=False)]
        ids = _ids(cams)
        got = score_round(ids[:-1], ids[-1:], scene, "geometric", None,
                          "mean")[0]
        _, _, _, want = ref_score_geometric(cams, scene, LAM, EPS)
        assert got.total == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_mask_and_density_match_reference():
    rng = np.random.default_rng(12)
    for _ in range(10):
        scene = random_small_scene(rng, n_cameras=4)
        pred = _random_density(rng, scene.grid)
        cams, ids = scene.cameras[:3], scene.camera_ids[:3]
        got_m = score_round(ids[:-1], ids[-1:], scene, "mask", pred,
                            "mean")[0]
        _, _, _, want_m = ref_score_mask(cams, scene, pred.values, "mean",
                                         LAM, EPS)
        got_d = score_round(ids[:-1], ids[-1:], scene, "density", pred,
                            "mean")[0]
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
        ids = scene.camera_ids[:3]
        union = scene.visibility_of(ids)
        pred = DensityMap(values=union.astype(float))
        geo = score_round(ids[:-1], ids[-1:], scene, "geometric", None,
                          "mean")[0]
        msk = score_round(ids[:-1], ids[-1:], scene, "mask", pred, 0.5)[0]
        assert msk.total == pytest.approx(geo.total, rel=1e-12, abs=1e-15)


def test_density_reduces_to_mask_on_unit_density():
    # M_k == 1 on the binarized region makes the density-weighted field the
    # plain inverse-distance field
    rng = np.random.default_rng(14)
    for _ in range(10):
        scene = random_small_scene(rng, n_cameras=4)
        ids = scene.camera_ids[:3]
        region = _random_density(rng, scene.grid).values > 0
        pred = DensityMap(values=region.astype(float))
        msk = score_round(ids[:-1], ids[-1:], scene, "mask", pred, 0.5)[0]
        den = score_round(ids[:-1], ids[-1:], scene, "density", pred, 0.5)[0]
        assert den.total == pytest.approx(msk.total, rel=1e-12, abs=1e-15)


def test_inverse_distance_single_camera(small_grid):
    cam = CameraPose(id="c", position_3d=(0.0, 0.0, 5.0), yaw=0.8,
                     pitch=-0.6, horizontal_fov_rad=1.2,
                     vertical_fov_rad=1.0, max_range_m=30.0)
    scene = Scene(grid=small_grid, cameras=[cam])
    field = _field(["c"], scene)
    X, Y = ref_cell_centers(small_grid)
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
    field = _field(["c"], scene)
    assert np.isfinite(field).all()
    assert field.max() <= 1.0 / (grid.cell_size_m / 2)


def _view_diversity(cams):
    """S_vd of the group cams as score_round scores its last camera after
    the others, on a small grid."""
    scene = Scene(grid=GroundGrid(height_cells=8, width_cells=8,
                                  cell_size_m=0.5), cameras=cams)
    ids = _ids(cams)
    return score_round(ids[:-1], ids[-1:], scene, "geometric", None,
                       "mean")[0].s_vd


def test_view_diversity_bounds_and_extremes():
    def cam(x, y, yaw, cid):
        return CameraPose(id=cid, position_3d=(x, y, 5.0), yaw=yaw,
                          pitch=-0.5, horizontal_fov_rad=1.0,
                          vertical_fov_rad=1.0, max_range_m=10.0)

    # single camera: no pairs, no penalty
    assert _view_diversity([cam(0, 0, 0.0, "a")]) == 1.0
    # opposing cameras are rewarded (dot < 0 -> factor > 1)
    opposing = _view_diversity([cam(0, 0, 0.0, "a"),
                                cam(10, 0, math.pi, "b")])
    aligned = _view_diversity([cam(0, 0, 0.0, "a"), cam(10, 0, 0.0, "b")])
    assert opposing > 1.0 > aligned
    # near-twin aligned cameras are punished much harder than distant ones
    twin = _view_diversity([cam(0, 0, 0.0, "a"), cam(0.5, 0, 0.0, "b")])
    assert twin < aligned


def test_view_diversity_nadir_contributes_zero(nadir_camera):
    side = CameraPose(id="s", position_3d=(0.0, 0.0, 5.0), yaw=0.0,
                      pitch=-0.5, horizontal_fov_rad=1.0,
                      vertical_fov_rad=1.0, max_range_m=10.0)
    assert _view_diversity([nadir_camera, side]) == 1.0
    assert _view_diversity([side, nadir_camera]) == 1.0


def test_binarize_modes():
    v = np.array([[0.0, 0.2], [0.4, 0.6]])
    dm = DensityMap(values=v)
    assert (binarize_density(dm, "mean") == (v > 0.3)).all()
    assert (binarize_density(dm, 0.5) == (v > 0.5)).all()
    zero = DensityMap(values=np.zeros((2, 2)))
    assert not binarize_density(zero, "mean").any()


def test_empty_region_yields_zero_total(demo_scene):
    pred = DensityMap(values=np.zeros(demo_scene.grid.shape))
    ids = demo_scene.camera_ids[:2]
    sb = score_round(ids[:-1], ids[-1:], demo_scene, "mask", pred, 0.5)[0]
    assert sb.total == 0.0


def test_term_subset_drops_factors(demo_scene):
    ids = demo_scene.camera_ids[:3]
    full, no_vd, sc_only = (
        score_round(ids[:-1], ids[-1:], demo_scene, "geometric", None,
                    "mean", terms)[0]
        for terms in (("sc", "ad", "vd"), ("sc", "ad"), ("sc",)))
    assert no_vd.total == pytest.approx(full.s_sc * full.s_ad, rel=1e-12)
    assert sc_only.total == pytest.approx(full.s_sc, rel=1e-12)


def test_combined_total_equals_sum_form(demo_scene):
    # s_sc * s_ad * s_vd telescopes to (sum D / n_cells) * s_vd
    ids = demo_scene.camera_ids[:3]
    sb = score_round(ids[:-1], ids[-1:], demo_scene, "geometric", None,
                     "mean")[0]
    field = _field(ids, demo_scene)
    union = demo_scene.visibility_of(ids)
    alt = field[union].sum() / demo_scene.grid.n_cells * sb.s_vd
    assert sb.total == pytest.approx(alt, rel=1e-12)


def test_density_weighted_field_scales_with_prediction(demo_scene):
    ids = demo_scene.camera_ids[:2]
    base = np.abs(np.random.default_rng(3).normal(
        size=demo_scene.grid.shape))
    one = _field(ids, demo_scene, base)
    two = _field(ids, demo_scene, 2.0 * base)
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
    # the round is the only builder of the field: after each advance its
    # field has the bits of the full-grid field of its group, under unit
    # weight and under a density weight
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
            rnd = _round(scene, w)
            assert not rnd.field.any()
            for n, cam in enumerate(cams, start=1):
                rnd.advance(cam.id)
                assert np.array_equal(
                    rnd.field,
                    ref_full_grid_field(cams[:n], fps[:n], scene.grid, w))


def test_strategy_totals_equal_full_grid_formula_exactly():
    rng = np.random.default_rng(16)
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(20)]
    for scene in scenes:
        cams = scene.cameras[:int(rng.integers(1, len(scene.cameras) + 1))]
        ids = _ids(cams)
        fps = [scene.footprint(cid) for cid in ids]
        pred = _random_density(rng, scene.grid)
        union = scene.visibility_of(ids)
        crowd = binarize_density(pred, "mean")
        for strategy, region, w in (("geometric", union, None),
                                     ("mask", crowd, None),
                                     ("density", crowd, pred.values)):
            got = score_round(ids[:-1], ids[-1:], scene, strategy, pred,
                              "mean")[0]
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
        # predictions whose binarization at 0.5 is the crowd region
        unit = DensityMap(values=crowd.astype(float))
        weighted = DensityMap(values=np.where(crowd, 1.0 + weight, 0.0))
        for k, (variant, pred, region, w) in itertools.product(
                (0, int(rng.integers(1, len(order)))),  # empty group too
                (("geometric", None, None, None), ("mask", unit, crowd, None),
                 ("density", weighted, crowd, weighted.values))):
            group, candidates = order[:k], order[k:]
            got = score_round(_ids(group), _ids(candidates), scene, variant,
                              pred, 0.5)
            assert len(got) == len(candidates)
            for cand, sb in zip(candidates, got):
                cams = group + [cand]
                fps = [scene.footprint(c.id) for c in cams]
                scored = (scene.visibility_of(_ids(cams))
                          if region is None else region)
                want = ref_totals(scored,
                                  ref_full_grid_field(cams, fps, scene.grid, w),
                                  ref_diversity(cams, LAM, EPS),
                                  scene.grid)
                assert (sb.s_sc, sb.s_ad, sb.s_vd, sb.total) == want
                assert sb.variant == variant


def test_consecutive_rounds_equal_per_group_formula_exactly():
    # consecutive greedy rounds on one scene, with the region and weight
    # changing between rounds as in the active pipeline, read the scene's
    # footprint distances each time; every breakdown still equals the
    # from-scratch full-grid formula
    rng = np.random.default_rng(18)
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(10)]
    for scene, variant in itertools.product(
            scenes, ("geometric", "mask", "density")):
        order = [scene.cameras[i] for i in rng.permutation(len(scene.cameras))]
        for k in range(len(order)):
            group, candidates = order[:k], order[k:]
            region = weight = pred = None
            if variant != "geometric":
                region = rng.random(scene.grid.shape) < 0.4
                pred = DensityMap(values=region.astype(float))
            if variant == "density":
                weight = np.where(
                    region, 1.0 + rng.uniform(0.0, 3.0, size=scene.grid.shape),
                    0.0)
                pred = DensityMap(values=weight)
            # each prediction binarizes at 0.5 to the region
            got = score_round(_ids(group), _ids(candidates), scene, variant,
                              pred, 0.5)
            assert len(got) == len(candidates)
            for cand, sb in zip(candidates, got):
                cams = group + [cand]
                fps = [scene.footprint(c.id) for c in cams]
                scored = (scene.visibility_of(_ids(cams))
                          if region is None else region)
                want = ref_totals(scored,
                                  ref_full_grid_field(cams, fps, scene.grid,
                                                      weight),
                                  ref_diversity(cams, LAM, EPS),
                                  scene.grid)
                assert (sb.s_sc, sb.s_ad, sb.s_vd, sb.total) == want


def _mass(scene, camera_id):
    """The camera's unit-weight mass in the scene's footprint table."""
    return scene.footprint_table()[2][scene.camera_index(camera_id)]


def test_footprint_window_equals_full_grid_formula_exactly():
    # each window is the tight bounding box of its footprint and holds the
    # full-grid floored distance on the footprint, +inf elsewhere
    rng = np.random.default_rng(19)
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(20)]
    for scene in scenes:
        X, Y = ref_cell_centers(scene.grid)
        for cam in scene.cameras:
            mask = scene.footprint(cam.id).mask
            if not mask.any():
                assert scene.footprint_window(cam.id) is None
                continue
            rows, cols, got = scene.footprint_window(cam.id)
            ii, jj = np.nonzero(mask)
            assert (rows, cols) == (slice(ii.min(), ii.max() + 1),
                                    slice(jj.min(), jj.max() + 1))
            cx, cy = cam.ground_position
            full = np.maximum(np.hypot(X - cx, Y - cy),
                              scene.grid.cell_size_m / 2.0)
            want = np.where(mask, full, np.inf)[rows, cols]
            assert np.array_equal(got, want)
            assert np.array_equal(got[mask[rows, cols]], full[mask])
            assert _mass(scene, cam.id) == pytest.approx(
                math.fsum(1.0 / full[mask]), rel=1e-12)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[...] = 0.0
    edge = scenes[0]
    assert edge.footprint_window("away") is None
    assert _mass(edge, "away") == 0.0
    # the nadir camera sits above a cell center: its distance is the floor
    assert edge.footprint_window("nadir")[2].min() == 0.25


def _with_empty_footprint(scene):
    """scene plus a camera far off the grid that looks away from it."""
    away = CameraPose(id="away", position_3d=(-20.0, -20.0, 4.0),
                      yaw=math.pi * 1.25, pitch=-0.4,
                      horizontal_fov_rad=1.2, vertical_fov_rad=1.0,
                      max_range_m=5.0)
    return Scene(grid=scene.grid, cameras=[*scene.cameras, away])


def _overlap_scenes():
    """Scenes whose cell counts are no multiple of 8 (7x9, 13x11) or of
    64 (20x20), each with a camera of empty footprint, and the roster of
    the large independent-selection benchmark (200x200 cells, 40
    cameras)."""
    scenes = [_with_empty_footprint(generate_scene(
                  n, GroundGrid(height_cells=h, width_cells=w,
                                cell_size_m=0.5), seed=seed))
              for h, w, n, seed in ((7, 9, 5, 3), (13, 11, 8, 4),
                                    (20, 20, 10, 5))]
    scenes.append(generate_scene(40, GroundGrid(height_cells=200,
                                                width_cells=200,
                                                cell_size_m=0.5),
                                 seed=1000))
    return scenes


def test_footprint_table_packs_each_mask_along_its_cells():
    # row-major bits, zero-padded to whole uint64 words, read-only
    for scene in _overlap_scenes():
        table, areas, _ = scene.footprint_table()
        n_cells = scene.grid.n_cells
        assert table.dtype == np.uint64
        assert table.shape == (len(scene.cameras), -(-n_cells // 64))
        assert not table.flags.writeable
        bits = np.unpackbits(table.view(np.uint8), axis=1)
        for cam, row in zip(scene.cameras, bits):
            mask = scene.footprint(cam.id).mask
            assert np.array_equal(row[:n_cells].astype(bool), mask.ravel())
            assert not row[n_cells:].any()
        assert areas.tolist() == [
            int(np.count_nonzero(scene.footprint(c.id).mask))
            for c in scene.cameras]


def test_screened_counts_equal_the_union_overlap_loop():
    # after each advance of a greedy run, each candidate's screened count
    # of ids + [c] is the union's count plus its area less its overlap with
    # the union, counted by a loop over the bool masks
    scenes = _overlap_scenes()
    assert [s.grid.n_cells % 64 for s in scenes] == [63, 15, 16, 0]
    assert not any(s.footprint("away").mask.any() for s in scenes[:3])
    for scene in scenes:
        rnd = _round(scene)
        candidates = list(scene.camera_ids)
        areas = scene.footprint_table()[1]
        while candidates:
            positions = np.array([scene.camera_index(c)
                                  for c in candidates])
            union = scene.visibility_of(rnd.ids)
            n_union = int(np.count_nonzero(union))
            assert rnd.n_scored == n_union
            want = [n_union + areas[p] - o for p, o in zip(
                positions, ref_union_overlap(scene, rnd.ids, candidates))]
            assert rnd.region_counts(positions).tolist() == want
            assert want == [int(np.count_nonzero(
                union | scene.footprint(c).mask)) for c in candidates]
            index, _ = rnd.winner(candidates)
            rnd.advance(candidates.pop(index))


def test_score_rejects_non_finite_weight(demo_scene):
    # a round's weight is its prediction's values
    pred = DensityMap(values=np.ones(demo_scene.grid.shape))
    assert _Round(demo_scene, "density", pred, "mean",
                  ALL_TERMS).weight is pred.values
    for bad in (np.nan, np.inf, -np.inf):
        one = np.ones(demo_scene.grid.shape)
        one[0, 0] = bad  # off most footprints, so inf / inf would be nan
        for weight in (one, np.full(demo_scene.grid.shape, bad)):
            # no prediction can carry the value: a DensityMap refuses it
            with pytest.raises(ValueError, match="nonnegative"):
                DensityMap(values=weight)


def test_score_rejects_mismatched_inputs(demo_scene):
    ids = demo_scene.camera_ids[:2]
    wrong = np.ones((3, 3))
    for strategy in ("mask", "density"):
        for pred in (None, DensityMap(values=wrong)):
            with pytest.raises(ValueError, match="prediction on the scene"):
                score_round(ids[:-1], ids[-1:], demo_scene, strategy, pred)
            # a greedy run's scorer refuses it before any round is scored
            with pytest.raises(ValueError, match="prediction on the scene"):
                round_scorer(demo_scene, strategy, pred)


def test_score_round_takes_only_a_scored_strategy(demo_scene):
    ids = demo_scene.camera_ids[:3]
    pred = DensityMap(values=np.ones(demo_scene.grid.shape))
    for strategy in ("random", "bogus"):
        with pytest.raises(ValueError, match=f"strategy '{strategy}' has no "
                                             f"score"):
            score_round(ids[:1], ids[1:], demo_scene, strategy, pred)
    for strategy in ("geometric", "mask", "density"):
        got = score_round(ids[:1], ids[1:], demo_scene, strategy, pred,
                          0.5)
        assert [sb.variant for sb in got] == [strategy] * 2


def test_score_names_cameras_by_id(demo_scene):
    # a score reads each camera from the scene by id: an id the scene
    # lacks, or a pose in place of an id, is refused
    ids, unknown = demo_scene.camera_ids[:2], "no-such-camera"
    for group, candidates in ((ids[:1], [unknown]), ([unknown], ids[1:]),
                              (ids[:1], demo_scene.cameras[1:2]),
                              (demo_scene.cameras[:1], ids[1:])):
        with pytest.raises(KeyError):
            score_round(group, candidates, demo_scene, "geometric")
        with pytest.raises(KeyError):
            round_scorer(demo_scene, "geometric")(group, candidates)
    with pytest.raises(KeyError):
        _round(demo_scene).advance(unknown)
    assert score_round(ids[:1], ids[1:], demo_scene, "geometric")


def test_score_refuses_a_camera_named_twice(demo_scene):
    # a score of group + [c] takes each camera's terms once: a camera in
    # the group and the candidates, or twice in either, is refused by name
    a, b = demo_scene.camera_ids[:2]
    for group, candidates in (([a], [a, b]), ([a, a], [b]), ([b], [a, a])):
        with pytest.raises(ValueError, match=f"'{a}' is named twice"):
            score_round(group, candidates, demo_scene, "geometric")
        with pytest.raises(ValueError, match=f"'{a}' is named twice"):
            round_scorer(demo_scene, "geometric")(group, candidates)
    assert score_round([a], [b], demo_scene, "geometric")[0].total > 0


def test_binarize_refuses_a_non_finite_threshold():
    dm = DensityMap(values=np.array([[0.0, 1.0], [2.0, 3.0]]))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="sigma_mode must be finite"):
            binarize_density(dm, bad)
    with pytest.raises(ValueError, match="sigma_mode must be finite"):
        score_round([], [], _edge_case_scene(), "mask",
                    DensityMap(values=np.ones((16, 20))), float("nan"))


def _bits(sb):
    return [float(v).hex() for v in (sb.s_sc, sb.s_ad, sb.s_vd, sb.total)] \
        + [sb.variant]


def _with_twins(rng, scene):
    """scene plus a same-pose twin of some of its cameras: a twin's score
    ties its original's exactly."""
    twins = [replace(cam, id=f"{cam.id}-twin") for cam in scene.cameras
             if rng.random() < 0.3]
    return Scene(grid=scene.grid, cameras=[*scene.cameras, *twins])


def test_round_scorer_picks_the_first_maximum_of_score_round():
    # the screened round picks the full scan's first maximum, with its bits,
    # on every strategy, every subset of terms and both kinds of sigma_mode
    rng = np.random.default_rng(24)
    subsets = [t for n in range(len(ALL_TERMS) + 1)
               for t in itertools.combinations(ALL_TERMS, n)]
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(60)]
    for scene in scenes:
        scene = _with_twins(rng, scene)
        order = [scene.camera_ids[i]
                 for i in rng.permutation(len(scene.cameras))]
        pred = _random_density(rng, scene.grid)
        for strategy in ("geometric", "mask", "density"):
            k = int(rng.integers(0, min(len(order), 5)))
            group, candidates = order[:k], order[k:]
            terms = subsets[int(rng.integers(len(subsets)))]
            sigma_mode = ("mean" if rng.random() < 0.5
                          else float(rng.uniform(0.0, 1.0)))
            full = score_round(group, candidates, scene, strategy, pred,
                               sigma_mode, terms)
            want = max(range(len(full)), key=lambda i: full[i].total)
            index, sb = round_scorer(scene, strategy, pred, sigma_mode,
                                     terms)(group, candidates)
            assert index == want
            assert _bits(sb) == _bits(full[want])


def _other_groups(rng, scene, group):
    """Groups that do not extend group: a shorter prefix, the reverse, and
    group with its last camera swapped for another."""
    others = [group[:int(rng.integers(len(group)))]]
    if len(group) > 1:
        others.append(group[::-1])
    rest = sorted(set(scene.camera_ids) - set(group))
    if len(rest) > 1:
        others.append(group[:-1] + [rest[int(rng.integers(len(rest)))]])
    return others


def test_carried_rounds_equal_fresh_rounds():
    # a greedy run's score_fn carries one round from call to call; each
    # call returns the answer of a round built afresh, along a
    # greedy chain, after a group that extends the chain by a camera other
    # than the last winner, and after groups that do not extend it at all
    rng = np.random.default_rng(25)
    subsets = [t for n in range(len(ALL_TERMS) + 1)
               for t in itertools.combinations(ALL_TERMS, n)]
    scenes = [_edge_case_scene()] + [random_small_scene(rng)
                                     for _ in range(25)]
    kinds = set()
    for scene in scenes:
        scene = _with_twins(rng, scene)
        pred = _random_density(rng, scene.grid)
        for strategy in ("geometric", "mask", "density"):
            terms = subsets[int(rng.integers(len(subsets)))]
            sigma_mode = ("mean" if rng.random() < 0.5
                          else float(rng.uniform(0.0, 1.0)))
            score_fn = round_scorer(scene, strategy, pred, sigma_mode, terms)

            def check(group, kind):
                kinds.add(kind)
                candidates = sorted(set(scene.camera_ids) - set(group))
                index, sb = round_scorer(scene, strategy, pred, sigma_mode,
                                         terms)(group, candidates)
                got_index, got = score_fn(list(group), candidates)
                assert (got_index, _bits(got)) == (index, _bits(sb)), kind
                return candidates[index]

            group = [scene.camera_ids[int(rng.integers(len(scene.cameras)))]]
            while len(group) < len(scene.cameras):
                winner = check(group, "chain")
                rest = sorted(set(scene.camera_ids) - set(group) - {winner})
                if rest and rng.random() < 0.3:
                    group.append(rest[int(rng.integers(len(rest)))])
                    if len(group) < len(scene.cameras):
                        check(group, "extended by another camera")
                    continue
                if rng.random() < 0.3:
                    for other in _other_groups(rng, scene, group):
                        check(other, "not extending")
                    check(group, "chain")  # back on the chain, afresh
                group.append(winner)
    assert kinds == {"chain", "extended by another camera", "not extending"}


def _mirrored_near_tie():
    """Two candidates mirrored across the grid's vertical midline, with a
    group camera on it: their scores agree to rounding, and the screen
    orders them the other way round from the exact scores."""
    grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
    group = CameraPose(id="g", position_3d=(7.5, 0.0, 6.0), yaw=math.pi / 2,
                       pitch=-0.7, horizontal_fov_rad=1.0,
                       vertical_fov_rad=1.0, max_range_m=20.0)

    def cam(cid, x, yaw):
        return CameraPose(id=cid, position_3d=(x, 8.0, 5.0), yaw=yaw,
                          pitch=-0.6, horizontal_fov_rad=1.2,
                          vertical_fov_rad=1.0, max_range_m=15.0)
    cams = [cam("a", 3.0, 1.0), cam("b", 12.0, math.pi - 1.0)]
    return Scene(grid=grid, cameras=[group] + cams), ["g"], ["a", "b"]


def test_screen_tolerance_covers_rounding_near_ties(monkeypatch):
    scene, group, candidates = _mirrored_near_tie()
    a, b = score_round(group, candidates, scene, "geometric")
    assert 0.0 < a.total - b.total <= 1e-15 * a.total
    assert round_scorer(scene, "geometric")(group, candidates) == (0, a)
    # with no tolerance only the screen's top, b, is scored exactly
    monkeypatch.setattr(scoring_module, "SCREEN_TOL", 0.0)
    assert round_scorer(scene, "geometric")(group, candidates) == (1, b)
    with pytest.raises(ValueError, match="no candidates"):
        round_scorer(scene, "geometric")(group, [])
