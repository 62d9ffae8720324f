import math

import numpy as np
import pytest

from viewsel import CameraPose, GroundGrid, Scene
from viewsel.synth import generate_scene


@pytest.fixture
def small_grid():
    return GroundGrid(height_cells=40, width_cells=40, cell_size_m=0.5)


@pytest.fixture
def nadir_camera():
    # straight-down camera at 10 m with symmetric 90-degree FOVs: the
    # footprint is an axis-aligned 20 m x 20 m square under the camera
    return CameraPose(id="nadir", position_3d=(10.0, 10.0, 10.0),
                      yaw=0.0, pitch=-math.pi / 2,
                      horizontal_fov_rad=math.pi / 2,
                      vertical_fov_rad=math.pi / 2,
                      max_range_m=100.0)


@pytest.fixture
def demo_scene(small_grid):
    return generate_scene(6, small_grid, seed=7)


# Per-criterion result lines recorded by tests/test_acceptance.py; echoed
# after the run because pytest's fd-level capture swallows in-test prints.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def assert_coverage_derived(state, scene) -> None:
    """state keeps scene, and its combined mask is the read-only union
    of its views' footprints on scene."""
    assert state.scene is scene
    assert np.array_equal(state.combined_mask,
                          scene.visibility_of(state.selected))
    assert not state.combined_mask.flags.writeable


def random_small_scene(rng: np.random.Generator, n_cameras=None) -> Scene:
    """Randomized scene on a grid of at most 40x40 cells."""
    h = int(rng.integers(10, 41))
    w = int(rng.integers(10, 41))
    grid = GroundGrid(height_cells=h, width_cells=w, cell_size_m=0.5)
    n = n_cameras or int(rng.integers(2, 11))
    return generate_scene(n, grid, seed=int(rng.integers(1 << 31)))
