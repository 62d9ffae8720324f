"""The artifact boundary: what the scene-file, trace and
selection-artifact readers reject (exit 2 with an `error:` line, never a
traceback), what they still accept, the key paths that `select` and
`eval` write, and the runs that `select` and `sweep` both refuse."""

import contextlib
import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from viewsel import Scene
from viewsel.cli import EXIT_NON_CONVERGED, EXIT_OK, EXIT_VALIDATION, main
from viewsel.crowd import trace_from_csv
from viewsel.selection import STRATEGIES
from viewsel.serialize import spec_hash


def run(*args) -> tuple[int, str]:
    """main's exit code and stderr, run in-process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def seed_run(tmp_path_factory):
    """A small scene-gen scene and trace, a geometric selection with a
    noisy predictor, and its evaluation report."""
    out = tmp_path_factory.mktemp("seed")
    assert run("scene-gen", "--cameras", "4", "--grid", "20x20", "--seed",
               "0", "--frames", "3", "--count", "10,20",
               "--out-dir", out)[0] == EXIT_OK
    scene, trace = out / "scene.json", out / "trace.csv"
    sel, rep = out / "sel.json", out / "rep.json"
    assert run("select", "--scene", scene, "--trace", trace, "--k", "3",
               "--frames", "2", "--predictor", "noisy",
               "--out", sel)[0] == EXIT_OK
    assert run("eval", "--scene", scene, "--trace", trace, "--selection",
               sel, "--use-trained", "--out", rep)[0] == EXIT_OK
    return scene, trace, sel, rep


def check_both(scene, trace, sel, out) -> list[tuple[int, str]]:
    """validate and eval --use-trained on the given files."""
    return [run("validate", "--scene", scene, "--trace", trace,
                "--selection", sel),
            run("eval", "--scene", scene, "--trace", trace, "--selection",
                sel, "--use-trained", "--out", out)]


def _parent(doc, path):
    """The object or list that holds the value at path, and its key there."""
    for name in path[:-1]:
        doc = doc[name]
    return doc, path[-1]


def _set(path, value):
    def edit(doc):
        parent, key = _parent(doc, path)
        parent[key] = value
    return edit


def _drop(path):
    def edit(doc):
        parent, key = _parent(doc, path)
        del parent[key]
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_set(["cameras"], 5), id="cameras-5"),
    pytest.param(_set(["grid"], []), id="grid-list"),
    pytest.param(lambda doc: [1], id="top-level-list"),
    pytest.param(_set(["cameras", 0, "position"], 5), id="position-5"),
    pytest.param(_set(["cameras", 0, "hfov"], None), id="hfov-null"),
    pytest.param(_set(["grid", "origin"], [0]), id="origin-one-entry"),
    pytest.param(_set(["cameras", 0], [1]), id="camera-list"),
    pytest.param(_set(["grid", "h"], "20"), id="h-str"),
    pytest.param(_set(["grid", "h"], 20.7), id="h-float"),
    pytest.param(_set(["grid", "h"], True), id="h-bool"),
    pytest.param(_set(["cameras", 0, "id"], 7), id="id-int"),
    pytest.param(_drop(["cameras", 0, "yaw"]), id="yaw-missing"),
    pytest.param(_set(["cameras", 0, "yaw"], 10 ** 400), id="yaw-huge-int"),
])
def test_bad_scene_file_is_validation_error(seed_run, tmp_path, edit):
    scene, trace, sel, _ = seed_run
    doc = json.loads(scene.read_text())
    doc = edit(doc) or doc
    bad = tmp_path / "scene.json"
    bad.write_text(json.dumps(doc))
    code, err = run("validate", "--scene", bad)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")


def test_scene_file_reads_its_spec_hash_and_int_angles(seed_run):
    scene, _, _, _ = seed_run
    doc = json.loads(scene.read_text())
    assert "spec_hash" in doc  # written by scene-gen, ignored by the reader
    want = Scene.from_config(doc).to_config()
    doc["cameras"][0]["yaw"] = 0
    got = Scene.from_config(doc).to_config()
    assert got["cameras"][0]["yaw"] == 0.0
    assert isinstance(got["cameras"][0]["yaw"], float)
    want["cameras"][0]["yaw"] = 0.0
    assert spec_hash(got) == spec_hash(want)


@pytest.mark.parametrize("edit, named", [
    pytest.param(_drop(["predictor_trained", "q_scale"]), "'q_scale'",
                 id="q_scale-missing"),
    pytest.param(_drop(["predictor_trained", "calibration", "quality"]),
                 "'quality'", id="quality-missing"),
    pytest.param(_drop(["predictor_trained", "calibration"]),
                 "'calibration'", id="calibration-missing"),
    pytest.param(_set(["predictor_trained", "calibration", "epochs"], 1),
                 "epochs", id="calibration-unknown-key"),
    pytest.param(_set(["predictor_trained"], 5), "not int",
                 id="predictor-int"),
    pytest.param(_set(["predictor_trained", "miss_rate"], "x"), "miss_rate",
                 id="miss_rate-str"),
    pytest.param(_set(["non_converged"], "no"), "non_converged",
                 id="non_converged-str"),
])
def test_validate_and_eval_reject_what_eval_cannot_read(seed_run, tmp_path,
                                                        edit, named):
    scene, trace, sel, _ = seed_run
    doc = json.loads(sel.read_text())
    edit(doc)
    bad = tmp_path / "sel.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "rep.json"
    for code, err in check_both(scene, trace, bad, out):
        assert code == EXIT_VALIDATION
        assert err.startswith("error: ") and named in err
    assert not out.exists()


def key_paths(value, prefix="") -> set[str]:
    """Dotted paths of every object key in value; `[]` marks a list."""
    if isinstance(value, dict):
        paths = set()
        for key, item in value.items():
            path = f"{prefix}.{key}" if prefix else key
            paths |= {path} | key_paths(item, path)
        return paths
    if isinstance(value, list):
        return set().union(*(key_paths(item, prefix + "[]")
                             for item in value))
    return set()


PREDICTOR_KEYS = ["calibration", "calibration.labeled_view_frames",
                  "calibration.quality", "count_noise_rel", "crowding_half",
                  "distance_falloff_m", "kernel_sigma_cells", "miss_rate",
                  "position_jitter_m", "q_scale", "seed"]


def test_select_and_eval_artifact_key_paths(seed_run):
    _, _, sel, rep = seed_run
    assert sorted(key_paths(json.loads(sel.read_text()))) == sorted(
        ["history", "history[].added_id", "history[].score",
         "history[].score.s_ad", "history[].score.s_sc",
         "history[].score.s_vd", "history[].score.total",
         "history[].score.variant", "non_converged", "predictor_trained",
         *(f"predictor_trained.{k}" for k in PREDICTOR_KEYS),
         "selected", "spec", "spec.predictor",
         *(f"spec.predictor.{k}" for k in PREDICTOR_KEYS),
         "spec.scene_hash", "spec.selection", "spec.selection.epochs",
         "spec.selection.k_max", "spec.selection.n_frames",
         "spec.selection.pseudo_stages",
         "spec.selection.seed", "spec.selection.sigma_mode",
         "spec.selection.strategy", "spec.selection.tau",
         "spec.selection.terms", "spec_hash"])
    assert sorted(key_paths(json.loads(rep.read_text()))) == [
        "counting", "counting.cover_rate", "counting.mae", "counting.mse",
        "counting.n_frames", "counting.nae", "cover_rate", "localization",
        "localization.f1", "localization.fn", "localization.fp",
        "localization.moda", "localization.modp", "localization.precision",
        "localization.recall", "localization.threshold_m", "localization.tp",
        "selected", "spec_hash"]


def json_type(value) -> str:
    """The JSON type of a parsed value."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.just(float("nan")) | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=5)


def locations(value, path=()):
    """The path of every value in a parsed JSON document, the root's ()
    included: object keys and list indices from the root down."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from locations(item, path + (key,))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_any_one_value_changed_exits_0_or_2(seed_run, data):
    """Replace any one value of the scene file or the selection artifact
    with a value of another JSON type, or drop any one object key: validate
    and eval --use-trained exit 0 or 2, and a 2 comes with an error line."""
    scene, trace, sel, _ = seed_run
    files = {"scene": scene, "selection": sel}
    which = data.draw(st.sampled_from(sorted(files)))
    doc = json.loads(files[which].read_text())
    path = data.draw(st.sampled_from(list(locations(doc))))
    if not path:
        doc = data.draw(json_values.filter(
            lambda v: json_type(v) != json_type(doc)))
    else:
        parent, key = _parent(doc, path)
        # object keys are strings, list indices ints
        if isinstance(key, str) and data.draw(st.booleans()):
            del parent[key]
        else:
            old = parent[key]
            parent[key] = data.draw(json_values.filter(
                lambda v: json_type(v) != json_type(old)))
    with tempfile.TemporaryDirectory() as tmp:
        files[which] = Path(tmp) / f"{which}.json"
        files[which].write_text(json.dumps(doc))
        for code, err in check_both(files["scene"], trace,
                                    files["selection"],
                                    Path(tmp) / "rep.json"):
            assert code in (EXIT_OK, EXIT_VALIDATION), err
            assert "Traceback" not in err
            if code == EXIT_VALIDATION:
                assert err.startswith("error: "), err


csv_values = (st.integers(-3, 3).map(str) | st.floats(-3, 3).map(repr)
              | st.sampled_from(["", "nan", "inf", "1e400", "1.5"])
              | st.text(max_size=3))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_any_one_trace_value_changed_exits_0_or_2(seed_run, data):
    """Replace any one value of trace.csv, a header name included:
    validate and eval --use-trained exit 0 or 2, a 2 comes with an error
    line, and eval runs on every trace that validate accepts."""
    scene, trace, sel, _ = seed_run
    rows = list(csv.reader(trace.read_text().splitlines()))
    i, j = data.draw(st.sampled_from(
        [(i, j) for i, row in enumerate(rows) for j in range(len(row))]))
    old = rows[i][j]
    rows[i][j] = data.draw(csv_values.filter(lambda v: v != old))
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "trace.csv"
        with open(bad, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        results = check_both(scene, bad, sel, Path(tmp) / "rep.json")
    for code, err in results:
        assert code in (EXIT_OK, EXIT_VALIDATION), err
        assert "Traceback" not in err
        if code == EXIT_VALIDATION:
            assert err.startswith("error: "), err
    (validated, _), (evaluated, err) = results
    if validated == EXIT_OK:
        assert evaluated == EXIT_OK, err


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_select_and_a_one_cell_sweep_run_or_refuse_alike(seed_run, data):
    """Any strategy, a k and a frame count from 0 to one past what the
    scene and the trace hold, either predictor, and no epoch or the default
    40 (an active run of no epoch cannot add a view): select exits 0, 2 or
    3. A one-cell sweep with the same flags exits 2 exactly when select
    does, with the same error line and no out-dir; otherwise its one row
    is ok, with select's selected views and non_converged flag."""
    scene, trace, _, _ = seed_run
    n_cameras = len(Scene.from_config(json.loads(scene.read_text())).cameras)
    n_frames = len(trace_from_csv(trace))
    k = data.draw(st.integers(0, n_cameras + 1))
    flags = ["--scene", scene, "--trace", trace,
             "--strategy", data.draw(st.sampled_from(STRATEGIES)),
             "--k", k, "--frames", data.draw(st.integers(0, n_frames + 1)),
             "--predictor", data.draw(st.sampled_from(["oracle", "noisy"])),
             "--epochs", data.draw(st.sampled_from([0, 40]))]
    with tempfile.TemporaryDirectory() as tmp:
        sel, out = Path(tmp) / "sel.json", Path(tmp) / "sweep"
        code, err = run("select", *flags, "--out", sel)
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_NON_CONVERGED), err
        swept = run("sweep", *flags, "--axis", "K", "--values", k,
                    "--out-dir", out)
        if code == EXIT_VALIDATION:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert swept == (code, err)
            assert not sel.exists() and not out.exists()
            return
        assert swept[0] == EXIT_OK, swept[1]
        with open(out / "sweep.csv", newline="") as f:
            (row,) = csv.DictReader(f)
        artifact = json.loads(sel.read_text())
    assert row["status"] == "ok"
    assert row["selected"] == "+".join(artifact["selected"])
    assert artifact["non_converged"] == (code == EXIT_NON_CONVERGED)
    assert row["non_converged"] == str(int(artifact["non_converged"]))
