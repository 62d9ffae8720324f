"""Pseudo-label supervision: the pairs of each stage, which one builder
makes, and the per-epoch credit that the pipelines run in their place."""

import numpy as np
import pytest

from viewsel import (GroundGrid, PseudoPair, SelectionConfig,
                     accumulate_density, generate_crowd_trace, kernel_table,
                     make_pseudo_pair, random_select)
from viewsel.crowd import DensityMap
from viewsel.selection import (PSEUDO_CREDIT, PSEUDO_STAGES, _camera_credit,
                               _epoch_credit, _pseudo_views)
from viewsel.synth import generate_scene

from reference import ref_modeltrain_pair, ref_viewsel_pair

STAGES = ("viewsel", "modeltrain")


@pytest.fixture
def setup(demo_scene):
    trace = generate_crowd_trace(demo_scene.grid, 4, (20, 40), 0.7, seed=2)
    state = random_select(demo_scene, 3, seed=0)
    return demo_scene, trace, state


def test_viewsel_pair_structure(setup):
    scene, trace, state = setup
    rng = np.random.default_rng(0)
    pair = make_pseudo_pair(state, trace[0], rng, "viewsel")
    assert pair.stage == "viewsel"
    assert pair.input_view_ids[:-1] == state.selected
    assert pair.input_view_ids[-1] not in state.selected
    assert (pair.loss_mask == state.combined_mask).all()
    assert not pair.gt_density.values[~pair.loss_mask].any()


def test_modeltrain_pair_structure(setup):
    scene, trace, state = setup
    rng = np.random.default_rng(1)
    pair = make_pseudo_pair(state, trace[0], rng, "modeltrain")
    assert pair.stage == "modeltrain"
    k = len(state.selected)
    assert len(pair.input_view_ids) == k
    assert pair.input_view_ids[0] in state.selected
    assert all(c not in state.selected for c in pair.input_view_ids[1:])
    # loss mask is exactly selected-union AND pseudo-input union
    expected = state.combined_mask & scene.visibility_of(
        list(pair.input_view_ids))
    assert (pair.loss_mask == expected).all()
    assert not pair.gt_density.values[~pair.loss_mask].any()


def test_pair_rejects_gt_outside_mask(small_grid):
    mask = np.zeros(small_grid.shape, dtype=bool)
    gt = np.ones(small_grid.shape)
    with pytest.raises(ValueError):
        PseudoPair(input_view_ids=("a",), gt_density=DensityMap(values=gt),
                   loss_mask=mask, stage="viewsel")


def test_viewsel_pair_needs_unselected(setup):
    scene, trace, _ = setup
    full = random_select(scene, len(scene.cameras), seed=0)
    with pytest.raises(ValueError,
                       match="need 1 unselected cameras, have 0"):
        make_pseudo_pair(full, trace[0], np.random.default_rng(0), "viewsel")


@pytest.mark.parametrize("stage", STAGES)
def test_pair_determinism(setup, stage):
    _, trace, state = setup
    a = make_pseudo_pair(state, trace[0], np.random.default_rng(9), stage)
    b = make_pseudo_pair(state, trace[0], np.random.default_rng(9), stage)
    assert a.input_view_ids == b.input_view_ids
    assert (a.gt_density.values == b.gt_density.values).all()


@pytest.mark.parametrize("stage", ["none", "both", "Viewsel", ""])
def test_pair_refuses_an_unknown_stage(setup, stage):
    _, trace, state = setup
    with pytest.raises(ValueError, match="unknown pseudo-label stage"):
        make_pseudo_pair(state, trace[0], np.random.default_rng(0), stage)
    with pytest.raises(ValueError, match="unknown pseudo-label stage"):
        _pseudo_views(stage, 3)


@pytest.mark.parametrize("sigma", [0.7, 1.0, 2.3])
def test_pseudo_pair_equals_the_builder_of_each_stage(sigma):
    # on the scenes of acceptance criterion 7 at every k with enough
    # unselected cameras: a modeltrain pair is the reference's bit for bit
    # for the same generator state; a viewsel pair keeps the group, and its
    # loss mask and GT are the reference's (its extra view is drawn
    # differently)
    checked = 0
    for i in range(10):
        grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
        scene = generate_scene(8, grid, seed=50 + i)
        trace = generate_crowd_trace(grid, 3, (15, 30), 0.7, seed=80 + i)
        for k in range(1, 5):
            state = random_select(scene, k, seed=i)
            for frame in trace:
                seed = [i, k, frame.frame_id]
                got = make_pseudo_pair(state, frame,
                                       np.random.default_rng(seed),
                                       "modeltrain", sigma)
                want = ref_modeltrain_pair(state, frame,
                                           np.random.default_rng(seed), sigma)
                assert got.input_view_ids == want.input_view_ids
                assert got.loss_mask.tobytes() == want.loss_mask.tobytes()
                assert (got.gt_density.values.tobytes()
                        == want.gt_density.values.tobytes())
                got = make_pseudo_pair(state, frame,
                                       np.random.default_rng(seed),
                                       "viewsel", sigma)
                want = ref_viewsel_pair(state, frame,
                                        np.random.default_rng(seed), sigma)
                assert got.input_view_ids[:k] == state.selected
                assert len(got.input_view_ids) == k + 1
                assert got.loss_mask.tobytes() == (
                    state.combined_mask.tobytes())
                assert (got.gt_density.values.tobytes()
                        == want.gt_density.values.tobytes())
                checked += 1
    assert checked == 10 * 4 * 3


@pytest.mark.parametrize("sigma", [1.0, 0.7])
def test_pair_gt_is_the_selected_density_under_the_loss_mask(sigma):
    # on the scenes of acceptance criterion 7, each pair's GT (the oracle
    # prediction under the selected group) equals, bit for bit, the density
    # of the selected group's visible people rasterized under the loss mask
    rng = np.random.default_rng(707)
    trimmed = 0
    for i in range(10):
        grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
        scene = generate_scene(8, grid, seed=50 + i)
        trace = generate_crowd_trace(grid, 5, (15, 30), 0.7, seed=80 + i)
        state = random_select(scene, 3, seed=i)
        for frame in trace:
            seen = frame.positions[frame.seen(state.combined_mask, grid)]
            table = kernel_table(seen, grid, sigma)
            for stage in STAGES:
                pair = make_pseudo_pair(state, frame, rng, stage, sigma)
                expected = accumulate_density(table, grid,
                                              mask=pair.loss_mask)
                assert np.array_equal(pair.gt_density.values, expected)
                trimmed += (pair.loss_mask != state.combined_mask).any()
    # some modeltrain loss masks are strictly inside the selected union
    assert trimmed


@pytest.mark.parametrize("stage", ["viewsel", "modeltrain"])
@pytest.mark.parametrize("pseudo_stages", PSEUDO_STAGES)
def test_epoch_credit_adds_pseudo_credit_when_its_stage_is_on(
        setup, pseudo_stages, stage):
    scene, trace, state = setup
    credit = _camera_credit(scene, trace)
    f, k = len(trace), len(state.selected)
    config = SelectionConfig(pseudo_stages=pseudo_stages)
    labeled = f * sum(credit[cid] for cid in state.selected)
    got = _epoch_credit(credit, f, state.selected, config, stage)
    if pseudo_stages in (stage, "both"):
        mean_unsel = float(np.mean([credit[cid] for cid in scene.camera_ids
                                    if cid not in state.selected]))
        assert mean_unsel > 0
        assert got == (labeled
                       + PSEUDO_CREDIT * f * _pseudo_views(stage, k)
                       * mean_unsel)
    else:
        assert got == labeled
    # with no unselected view there is nothing to pseudo-label
    everything = tuple(scene.camera_ids)
    assert _epoch_credit(credit, f, everything, config, stage) == (
        f * sum(credit[cid] for cid in everything))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pseudo_views_count_the_unselected_inputs_of_each_pair(setup, k):
    scene, trace, _ = setup
    state = random_select(scene, k, seed=k)
    rng = np.random.default_rng(k)
    assert (_pseudo_views("viewsel", k), _pseudo_views("modeltrain", k)) == (
        1, k - 1)
    for stage in STAGES:
        for frame in trace:
            pair = make_pseudo_pair(state, frame, rng, stage)
            assert pair.stage == stage
            assert sum(cid not in state.selected
                       for cid in pair.input_view_ids) == _pseudo_views(
                           stage, k)
