"""Self-tests of the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py -q
"""

import hashlib
import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import tracing  # noqa: E402

vs = bench.load_viewsel()[0]


def _bindings() -> dict:
    """Every function binding in the package's modules, plus the methods
    the tracer wraps."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "viewsel" or name.startswith("viewsel."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[(name, attr)] = obj
    for layer, cls_name, meth in tracing.SPAN_METHODS + tracing.COUNT_METHODS:
        cls = getattr(getattr(vs, layer), cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def _tiny_digest() -> str:
    """Active selection plus evaluate on a small scene, through the module
    bindings the tracer replaces."""
    grid = vs.geometry.GroundGrid(30, 30, 0.5)
    scene = vs.synth.generate_scene(5, grid, seed=3)
    trace = vs.crowd.generate_crowd_trace(grid, 3, (10, 20), 0.8, seed=4)
    config = vs.selection.SelectionConfig(k_max=2, n_frames=2,
                                          strategy="density", tau=30.0,
                                          epochs=3, seed=1)
    predictor = vs.predictor.PredictorConfig(miss_rate=0.5,
                                             position_jitter_m=0.5, seed=1)
    state, _, trained = vs.selection.run_avs(scene, trace, config, predictor)
    rep = vs.evaluate.evaluate(scene, trace, state, trained)
    text = (f"{state.selected} {rep.counting.mae!r} {rep.localization.f1!r} "
            f"{rep.cover_rate!r}")
    return hashlib.sha256(text.encode()).hexdigest()


def test_tracer_restores_every_binding_and_changes_no_digest():
    before = _bindings()
    plain = _tiny_digest()
    tracer = tracing.Tracer()
    tracer.phase = "p"
    tracer.install("viewsel")
    try:
        changed = {k for k, v in _bindings().items() if before[k] is not v}
        traced = _tiny_digest()
    finally:
        tracer.uninstall()
    after = _bindings()
    assert traced == plain
    assert ("viewsel.selection", "run_avs") in changed
    assert ("viewsel", "run_avs") in changed  # package namespace too
    assert ("viewsel.selection", "noisy_predict") in changed
    assert ("GroundGrid", "world_to_cell") in changed
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    stats = tracing.phase_stats(tracer)["p"]
    assert stats["selection.run_avs.calls"] == 1
    assert stats["geometry.GroundGrid.world_to_cell.calls"] > 0
    assert stats["top_level_s"] > 0


def test_self_s_on_synthetic_nested_spans():
    # [phase, name, start, end, parent, value, key]
    spans = [[0, "a", 0.0, 10.0, -1, None, None],
             [0, "b", 1.0, 4.0, 0, None, None],
             [0, "c", 3.0, 6.0, 0, None, None],   # overlaps b
             [0, "d", 2.0, 3.0, 1, None, None],
             [0, "e", 8.0, 12.0, 0, None, None],  # runs past its parent
             [1, "a", 20.0, 21.0, -1, None, None]]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 1.0, 4.0, 1.0]
    tracer = tracing.Tracer()
    tracer.spans.extend(spans)
    stats = tracing.phase_stats(tracer)
    assert stats[0]["a.self_s"] == 3.0 and stats[0]["a.total_s"] == 10.0
    assert stats[0]["top_level_s"] == 10.0
    assert stats[1]["a.calls"] == 1 and stats[1]["a.self_s"] == 1.0


def test_unique_ratio_on_toy_calls():
    assert tracing.unique_ratio(["x", "y", "x", "z", "x"]) == 3 / 5
    assert tracing.unique_ratio([]) == 0.0

    grid = vs.geometry.GroundGrid(20, 20, 0.5)
    scene = vs.synth.generate_scene(3, grid, seed=5)
    frames = vs.crowd.generate_crowd_trace(grid, 2, (5, 9), 0.5, seed=6)
    config = vs.predictor.PredictorConfig(miss_rate=0.5, seed=2)
    vis = scene.visibility_of(["cam0"])
    tracer = tracing.Tracer()
    tracer.phase = 0
    tracer.install("viewsel")
    try:
        for frame in (frames[0], frames[0], frames[1]):
            vs.predictor.noisy_predict(frame, vis.copy(), scene, config,
                                       selected_ids=["cam0"])
        vs.predictor.noisy_predict(frames[0], vis, scene, config)  # no ids
        for cid in ("cam0", "cam1", "cam0"):
            vs.selection.view_person_credit(scene, frames, cid)
        vs.selection.view_person_credit(scene, frames[:1], "cam0")
    finally:
        tracer.uninstall()
    stats = tracing.phase_stats(tracer)[0]
    assert stats["predictor.noisy_predict.calls"] == 4
    assert stats["predictor.noisy_predict.unique_ratio"] == 3 / 4
    assert stats["selection.view_person_credit.calls"] == 4
    assert stats["selection.view_person_credit.unique_ratio"] == 3 / 4
