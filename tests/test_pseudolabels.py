import numpy as np
import pytest

from viewsel import (GroundGrid, PredictorConfig, SelectionConfig,
                     accumulate_density, generate_crowd_trace, kernel_table,
                     make_modeltrain_pair, make_viewsel_pair, random_select)
from viewsel.pseudolabels import STAGE_MODELTRAIN, STAGE_VIEWSEL, PseudoPair
from viewsel.crowd import DensityMap
from viewsel.synth import generate_scene


@pytest.fixture
def setup(demo_scene):
    trace = generate_crowd_trace(demo_scene.grid, 4, (20, 40), 0.7, seed=2)
    state = random_select(demo_scene, 3, seed=0)
    return demo_scene, trace, state


def test_viewsel_pair_structure(setup):
    scene, trace, state = setup
    rng = np.random.default_rng(0)
    pair = make_viewsel_pair(state, trace[0], rng)
    assert pair.stage == STAGE_VIEWSEL
    assert pair.input_view_ids[:-1] == state.selected
    assert pair.input_view_ids[-1] not in state.selected
    assert (pair.loss_mask == state.combined_mask).all()
    assert not pair.gt_density.values[~pair.loss_mask].any()


def test_modeltrain_pair_structure(setup):
    scene, trace, state = setup
    rng = np.random.default_rng(1)
    pair = make_modeltrain_pair(state, trace[0], rng)
    assert pair.stage == STAGE_MODELTRAIN
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
                   loss_mask=mask, stage=STAGE_VIEWSEL)


def test_viewsel_pair_needs_unselected(setup):
    scene, trace, _ = setup
    full = random_select(scene, len(scene.cameras), seed=0)
    with pytest.raises(ValueError):
        make_viewsel_pair(full, trace[0], np.random.default_rng(0))


def test_pair_determinism(setup):
    _, trace, state = setup
    a = make_modeltrain_pair(state, trace[0], np.random.default_rng(9))
    b = make_modeltrain_pair(state, trace[0], np.random.default_rng(9))
    assert a.input_view_ids == b.input_view_ids
    assert (a.gt_density.values == b.gt_density.values).all()


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
            for pair in (make_viewsel_pair(state, frame, rng, sigma),
                         make_modeltrain_pair(state, frame, rng, sigma)):
                expected = accumulate_density(table, grid,
                                              mask=pair.loss_mask)
                assert np.array_equal(pair.gt_density.values, expected)
                trimmed += (pair.loss_mask != state.combined_mask).any()
    # some modeltrain loss masks are strictly inside the selected union
    assert trimmed
