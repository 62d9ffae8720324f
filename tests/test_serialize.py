import math
from dataclasses import asdict

import numpy as np
import pytest

import viewsel.predictor as predictor_module
import viewsel.selection as selection_module
from viewsel import (CalibrationState, CameraPose, CrowdFrame, DensityMap,
                     GroundGrid, PredictorConfig, SelectionConfig,
                     binarize_density, calibrate, generate_crowd_trace,
                     generate_scene, kernel_table, run_avs, run_ivs,
                     run_selection)
from viewsel.evaluate import evaluate
from viewsel.metrics import (extract_peaks, localization_metrics,
                             match_points)
from viewsel.selection import random_select, select_frames
from viewsel.serialize import (canonical_json, read_json, spec_hash,
                               write_json, write_pgm)


def test_canonical_json_sorts_keys():
    assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_json_round_trip(tmp_path):
    obj = {"list": [1, 2.5, "x"], "nested": {"k": None}}
    path = tmp_path / "o.json"
    write_json(path, obj)
    assert read_json(path) == obj
    # byte stability
    before = path.read_bytes()
    write_json(path, obj)
    assert path.read_bytes() == before


def test_unwritable_object_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "o.json"
    write_json(path, {"x": 1.5})
    before = path.read_bytes()
    for bad in ({"x": float("nan")}, {"x": object()}):
        with pytest.raises((ValueError, TypeError)):
            write_json(path, bad)
        assert path.read_bytes() == before


def test_spec_hash_stable_and_order_insensitive():
    a = spec_hash({"x": 1, "y": [2, 3]})
    b = spec_hash({"y": [2, 3], "x": 1})
    assert a == b and len(a) == 16
    assert spec_hash({"x": 2}) != a


def test_pgm_header_and_scaling(tmp_path):
    v = np.array([[0.0, 1.0], [2.0, 4.0]])
    path = tmp_path / "m.pgm"
    write_pgm(path, v)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    pixels = np.frombuffer(data[-4:], dtype=np.uint8).reshape(2, 2)
    assert pixels[1, 1] == 255 and pixels[0, 0] == 0


def test_pgm_flat_map(tmp_path):
    path = tmp_path / "z.pgm"
    write_pgm(path, np.zeros((3, 3)))
    assert path.read_bytes().endswith(b"\x00" * 9)


GRID = GroundGrid(height_cells=20, width_cells=20, cell_size_m=1.0)
SCENE = generate_scene(4, GRID, seed=5)
TRACE = generate_crowd_trace(GRID, 3, (5, 8), 0.5, seed=6)
STATE = random_select(SCENE, 2, seed=0)
# a predictor that would draw on every frame it predicts
NOISY = PredictorConfig(miss_rate=0.5, position_jitter_m=1.0)
DENSITY = DensityMap(values=np.ones(GRID.shape))


def _camera(**kw):
    return CameraPose(**{"id": "c", "position_3d": (0.0, 0.0, 5.0),
                         "yaw": 0.0, "pitch": -0.5,
                         "horizontal_fov_rad": 1.0, "vertical_fov_rad": 1.0,
                         "max_range_m": 10.0, **kw})


def _with_frame_id(fid):
    """TRACE with its second frame's id set to fid."""
    return [TRACE[0], CrowdFrame(frame_id=fid, positions=TRACE[1].positions),
            TRACE[2]]


REAL, INT = "a number", "an integer"
ANY, FINITE = ("nan", "inf", "true", "str"), ("nan", "inf")
# (entry point and parameter, kind, name in the message, bad values, call):
# the configs' type checks have tests of their own, so the configs are
# checked here for nan and inf, each named by its field; the rest for all
# four (random_select's k and seed are tested in test_selection.py)
NUMBER_PARAMETERS = [
    ("GroundGrid.cell_size_m", REAL, "grid cell_size_m", FINITE,
     lambda v: GroundGrid(4, 4, cell_size_m=v)),
    ("GroundGrid.origin", REAL, "grid origin", FINITE,
     lambda v: GroundGrid(4, 4, origin=(0.0, v))),
    ("CameraPose.position_3d", REAL, "camera c position", FINITE,
     lambda v: _camera(position_3d=(0.0, v, 5.0))),
    *[(f"CameraPose.{name}", REAL, f"camera c {key}", FINITE,
       (lambda name: lambda v: _camera(**{name: v}))(name))
      for key, name in (("yaw", "yaw"), ("pitch", "pitch"),
                        ("hfov", "horizontal_fov_rad"),
                        ("vfov", "vertical_fov_rad"),
                        ("max_range", "max_range_m"))],
    *[(f"CalibrationState.{name}", REAL, f"calibration {name}", FINITE,
       (lambda name: lambda v: CalibrationState(**{name: v}))(name))
      for name in ("labeled_view_frames", "quality")],
    *[(f"PredictorConfig.{name}", REAL, f"predictor {name}", FINITE,
       (lambda name: lambda v: PredictorConfig(**{name: v}))(name))
      for name in ("miss_rate", "position_jitter_m", "count_noise_rel",
                   "kernel_sigma_cells", "q_scale", "distance_falloff_m",
                   "crowding_half")],
    *[(f"SelectionConfig.{name}", REAL, name, FINITE,
       (lambda name: lambda v: SelectionConfig(**{name: v}))(name))
      for name in ("tau", "sigma_mode")],
    ("kernel_table.kernel_sigma_cells", REAL, "kernel_sigma_cells", ANY,
     lambda v: kernel_table(TRACE[0].positions, GRID, v)),
    ("select_frames.kernel_sigma_cells", REAL, "kernel_sigma_cells", ANY,
     lambda v: select_frames(SCENE, [(f, 1.0) for f in TRACE], 2, v)),
    ("select_frames.f", INT, "f", ANY,
     lambda v: select_frames(SCENE, [(f, 1.0) for f in TRACE], v, 1.0)),
    ("binarize_density.sigma_mode", REAL, "sigma_mode", ANY,
     lambda v: binarize_density(DENSITY, v)),
    ("extract_peaks.min_value", REAL, "peak min_value", ANY,
     lambda v: extract_peaks(DENSITY, GRID, v, 2.0)),
    ("extract_peaks.nms_radius_cells", REAL, "nms_radius_cells", ANY,
     lambda v: extract_peaks(DENSITY, GRID, 0.05, v)),
    ("match_points.threshold_m", REAL, "threshold_m", ANY,
     lambda v: match_points([(0.0, 0.0)], [(0.0, 0.0)], v)),
    ("localization_metrics.threshold_m", REAL, "threshold_m", ANY,
     lambda v: localization_metrics([(0, 0, 0.1)], 0, 0, 1, v)),
    ("evaluate.threshold_m", REAL, "threshold_m", ANY,
     lambda v: evaluate(SCENE, TRACE, STATE, NOISY, threshold_m=v)),
    ("calibrate.newly_labeled_view_frames", REAL,
     "newly_labeled_view_frames", ANY,
     lambda v: calibrate(PredictorConfig(), v)),
    ("calibrate.epochs", INT, "epochs", ANY,
     lambda v: calibrate(PredictorConfig(), 1.0, v)),
    ("generate_scene.n_cameras", INT, "n_cameras", ANY,
     lambda v: generate_scene(v, GRID, seed=0)),
    ("generate_scene.seed", INT, "seed", ANY,
     lambda v: generate_scene(2, GRID, seed=v)),
    ("generate_scene.twin_fraction", REAL, "twin_fraction", ANY,
     lambda v: generate_scene(2, GRID, seed=0, twin_fraction=v)),
    ("generate_scene.range_frac", REAL, "range_frac", ANY,
     lambda v: generate_scene(2, GRID, seed=0, range_frac=(0.35, v))),
    ("generate_crowd_trace.n_frames", INT, "n_frames", ANY,
     lambda v: generate_crowd_trace(GRID, v, (1, 2), 0.5, seed=0)),
    ("generate_crowd_trace.count_range", INT, "count_range", ANY,
     lambda v: generate_crowd_trace(GRID, 2, (v, 2), 0.5, seed=0)),
    ("generate_crowd_trace.clustering", REAL, "clustering", ANY,
     lambda v: generate_crowd_trace(GRID, 2, (1, 2), v, seed=0)),
    ("generate_crowd_trace.seed", INT, "seed", ANY,
     lambda v: generate_crowd_trace(GRID, 2, (1, 2), 0.5, seed=v)),
    # a frame id that the message names as the frame
    ("run_ivs.frame_id", INT, "frame {}: frame id", ANY,
     lambda v: run_ivs(SCENE, _with_frame_id(v),
                       SelectionConfig(k_max=2, n_frames=2), NOISY)),
    ("run_avs.frame_id", INT, "frame {}: frame id", ANY,
     lambda v: run_avs(SCENE, _with_frame_id(v),
                       SelectionConfig(k_max=2, n_frames=2,
                                       strategy="density"), NOISY)),
    ("run_selection.frame_id", INT, "frame {}: frame id", ANY,
     lambda v: run_selection(SCENE, _with_frame_id(v),
                             SelectionConfig(k_max=2, n_frames=2,
                                             strategy="random"), NOISY)),
    ("evaluate.frame_id", INT, "frame {}: frame id", ANY,
     lambda v: evaluate(SCENE, _with_frame_id(v), STATE, NOISY)),
]
BAD = {"nan": math.nan, "inf": math.inf, "true": True, "str": "1"}


def _message(kind, what, bad):
    if isinstance(bad, str):
        return f"{what} must be {kind}, not str"
    if isinstance(bad, bool):
        return f"{what} must be {kind}, not bool"
    if kind == INT:
        return f"{what} must be an integer, not float"
    return f"{what} must be finite, not {bad}"


@pytest.mark.parametrize("case, kind, what, bad, call", [
    pytest.param(case, kind, what, BAD[name], call, id=f"{case}-{name}")
    for case, kind, what, names, call in NUMBER_PARAMETERS
    for name in names])
def test_every_entry_point_refuses_a_bad_number_by_name(
        monkeypatch, case, kind, what, bad, call):
    drawn = []
    for module in (predictor_module, selection_module):
        monkeypatch.setattr(module, "noisy_draw",
                            lambda *a, **k: drawn.append(a))
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value) == _message(kind, what.format(bad), bad)
    assert drawn == []


def test_a_checked_number_is_stored_as_given():
    # the checks store nothing, so an int is written as one and a spec hash
    # does not move
    predictor = PredictorConfig(q_scale=400,
                                calibration=CalibrationState(3, 0))
    assert '"calibration":{"labeled_view_frames":3,"quality":0}' in \
        canonical_json(asdict(predictor))
    assert '"q_scale":400,' in canonical_json(asdict(predictor))
    assert '"tau":20,' in canonical_json(asdict(SelectionConfig(tau=20)))
