import importlib
import json

import pytest

from viewsel import predictor as predictor_module
from viewsel import selection as selection_module
from viewsel.cli import (EXIT_NON_CONVERGED, EXIT_OK, EXIT_VALIDATION,
                         build_parser, main)

evaluate_module = importlib.import_module("viewsel.evaluate")


def run(*args):
    return main(list(args))


@pytest.fixture
def artifacts(tmp_path):
    out = tmp_path / "scene"
    code = run("scene-gen", "--cameras", "6", "--grid", "40x40",
               "--seed", "3", "--frames", "8", "--count", "20,40",
               "--clustering", "0.8", "--out-dir", str(out))
    assert code == EXIT_OK
    return out / "scene.json", out / "trace.csv"


def test_scene_gen_writes_expected_files(artifacts):
    scene_path, trace_path = artifacts
    cfg = json.loads(scene_path.read_text())
    assert len(cfg["cameras"]) == 6
    assert cfg["grid"] == {"h": 40, "w": 40, "cell_size_m": 0.5,
                           "origin": [0.0, 0.0]}
    header = trace_path.read_text().splitlines()[0]
    assert header == "frame_id,person_idx,x_m,y_m"


def test_scene_gen_byte_identical_reruns(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run("scene-gen", "--cameras", "5", "--grid", "30x30", "--seed", "9",
            "--out-dir", str(out))
        outs.append(out)
    assert (outs[0] / "scene.json").read_bytes() \
        == (outs[1] / "scene.json").read_bytes()
    assert (outs[0] / "trace.csv").read_bytes() \
        == (outs[1] / "trace.csv").read_bytes()


def test_select_and_eval_round_trip(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", "geometric", "--k", "3",
               "--frames", "4", "--out", str(sel)) == EXIT_OK
    data = json.loads(sel.read_text())
    assert len(data["selected"]) == 3
    assert "spec_hash" in data
    rep = tmp_path / "rep.json"
    assert run("eval", "--scene", str(scene_path), "--trace",
               str(trace_path), "--selection", str(sel), "--out",
               str(rep)) == EXIT_OK
    report = json.loads(rep.read_text())
    assert 0.0 <= report["cover_rate"] <= 1.0
    assert report["counting"]["mae"] >= 0.0


def test_select_deterministic(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    outs = []
    for name in ("s1.json", "s2.json"):
        path = tmp_path / name
        assert run("select", "--scene", str(scene_path), "--trace",
                   str(trace_path), "--strategy", "density", "--k", "3",
                   "--frames", "4", "--predictor", "noisy", "--tau", "20",
                   "--epochs", "15", "--q-scale", "150",
                   "--out", str(path)) == EXIT_OK
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_random_strategy_count(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    sel = tmp_path / "r.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", "random", "--k", "5",
               "--frames", "4", "--out", str(sel)) == EXIT_OK
    assert len(json.loads(sel.read_text())["selected"]) == 5


def test_active_requires_noisy_predictor(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    code = run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", "mask", "--k", "3",
               "--frames", "4", "--out", str(tmp_path / "x.json"))
    assert code == EXIT_VALIDATION


def test_non_convergence_exit_code(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    code = run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", "mask", "--k", "5",
               "--frames", "4", "--predictor", "noisy", "--tau", "1e-9",
               "--epochs", "2", "--q-scale", "1e9",
               "--miss-rate", "0.9", "--out", str(tmp_path / "nc.json"))
    assert code == EXIT_NON_CONVERGED


def test_eval_refuses_scene_hash_mismatch(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    run("select", "--scene", str(scene_path), "--trace", str(trace_path),
        "--strategy", "geometric", "--k", "2", "--frames", "3",
        "--out", str(sel))
    other = tmp_path / "other"
    run("scene-gen", "--cameras", "6", "--grid", "40x40", "--seed", "99",
        "--out-dir", str(other))
    rep = tmp_path / "rep.json"
    code = run("eval", "--scene", str(other / "scene.json"), "--trace",
               str(trace_path), "--selection", str(sel), "--out", str(rep))
    assert code == EXIT_VALIDATION
    assert run("eval", "--scene", str(other / "scene.json"), "--trace",
               str(trace_path), "--selection", str(sel), "--force",
               "--out", str(rep)) == EXIT_OK


def test_validate_catches_unknown_selection(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"selected": ["nope"]}))
    code = run("validate", "--scene", str(scene_path), "--selection",
               str(bad))
    assert code == EXIT_VALIDATION
    assert run("validate", "--scene", str(scene_path), "--trace",
               str(trace_path)) == EXIT_OK


def test_validate_names_the_first_off_grid_person(artifacts, tmp_path,
                                                  capsys):
    scene_path, _ = artifacts  # a 40x40 grid of 0.5 m cells: 20 m square
    trace = tmp_path / "trace.csv"
    trace.write_text("frame_id,person_idx,x_m,y_m\n0,0,1.5,2.0\n"
                     "1,0,3.0,25.0\n1,1,-1.0,1.0\n")
    assert run("validate", "--scene", str(scene_path), "--trace",
               str(trace)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: frame 1: person at (3.0, 25.0) outside grid extent\n")


@pytest.mark.parametrize("command", ["select", "eval", "sweep", "validate"])
def test_off_grid_person_is_validation_error(artifacts, tmp_path, capsys,
                                             command):
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--k", "2", "--frames", "3",
               "--out", str(sel)) == EXIT_OK
    header, first, *rest = trace_path.read_text().splitlines()
    frame_id, person_idx, _, y = first.split(",")
    off = tmp_path / "off_grid.csv"
    off.write_text("\n".join([header, f"{frame_id},{person_idx},-50.0,{y}",
                              *rest]) + "\n")
    out = tmp_path / "out"
    args = {"select": ["--k", "2", "--frames", "3", "--out", str(out)],
            "eval": ["--selection", str(sel), "--out", str(out)],
            "sweep": ["--axis", "K", "--values", "2", "--frames", "3",
                      "--out-dir", str(out)],
            "validate": []}[command]
    capsys.readouterr()
    assert run(command, "--scene", str(scene_path), "--trace", str(off),
               *args) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: frame {frame_id}: person at (-50.0, {float(y)}) "
        "outside grid extent\n")
    assert not out.exists()


def test_eval_rejects_unknown_trained_predictor_key(artifacts, tmp_path,
                                                    capsys):
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--k", "2", "--frames", "3",
               "--out", str(sel)) == EXIT_OK
    data = json.loads(sel.read_text())
    data["predictor_trained"]["bogus_gain"] = 1.0
    sel.write_text(json.dumps(data))
    assert run("eval", "--scene", str(scene_path), "--trace",
               str(trace_path), "--selection", str(sel), "--use-trained",
               "--out", str(tmp_path / "rep.json")) == EXIT_VALIDATION
    assert "bogus_gain" in capsys.readouterr().err


@pytest.mark.parametrize("artifact, message", [
    *(pytest.param({"selected": selected, "non_converged": False},
                   "must be a list of camera id strings", id=name)
      for name, selected in (("5", 5), ("c0", "c0"), ("selected2", [0, 1]))),
    pytest.param([1], "must be a JSON object, not list", id="list"),
    pytest.param("c0", "must be a JSON object, not str", id="str"),
    pytest.param({"selected": ["cam0"], "spec": [1]},
                 "'spec' must be a JSON object, not list", id="spec"),
])
def test_selection_that_is_not_a_list_of_ids_is_validation_error(
        artifacts, tmp_path, capsys, artifact, message):
    scene_path, trace_path = artifacts
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(artifact))
    for command, extra in (("validate", []),
                           ("eval", ["--out", str(tmp_path / "rep.json")])):
        assert run(command, "--scene", str(scene_path), "--trace",
                   str(trace_path), "--selection", str(bad),
                   *extra) == EXIT_VALIDATION
        assert message in capsys.readouterr().err


@pytest.fixture
def selection(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--k", "2", "--frames", "3",
               "--predictor", "noisy", "--out", str(sel)) == EXIT_OK
    return sel


@pytest.mark.parametrize("field, value", [
    ("miss_rate", "x"), ("miss_rate", None), ("miss_rate", True),
    ("q_scale", "200"), ("seed", 1.5), ("seed", "0"), ("seed", None),
    ("calibration.quality", "nan"), ("calibration.quality", None),
    ("calibration.quality", 1.5), ("calibration.labeled_view_frames", -1.0),
    ("calibration.labeled_view_frames", "1e400"), ("calibration", [0.0]),
])
def test_mistyped_trained_predictor_is_validation_error(
        artifacts, selection, tmp_path, field, value):
    scene_path, trace_path = artifacts
    data = json.loads(selection.read_text())
    *parents, key = ["predictor_trained", *field.split(".")]
    target = data
    for name in parents:
        target = target[name]
    target[key] = value
    selection.write_text(json.dumps(data))
    out = tmp_path / "rep.json"
    assert run("eval", "--scene", str(scene_path), "--trace",
               str(trace_path), "--selection", str(selection),
               "--use-trained", "--out", str(out)) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0"])
def test_non_finite_threshold_is_validation_error(artifacts, selection,
                                                  tmp_path, threshold):
    scene_path, trace_path = artifacts
    out = tmp_path / "rep.json"
    assert run("eval", "--scene", str(scene_path), "--trace",
               str(trace_path), "--selection", str(selection),
               f"--threshold-m={threshold}", "--out", str(out)) \
        == EXIT_VALIDATION
    assert not out.exists()
    sweep = tmp_path / "sweep"
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "K", "--values", "2",
               "--frames", "3", f"--threshold-m={threshold}",
               "--out-dir", str(sweep)) == EXIT_VALIDATION
    assert not (sweep / "sweep.csv").exists()


@pytest.mark.parametrize("flag", ["--epochs=-1", "--tau=nan", "--sigma=nan",
                                  "--sigma=inf"])
@pytest.mark.parametrize("command", ["select", "sweep"])
def test_bad_selection_number_is_validation_error(artifacts, tmp_path,
                                                  monkeypatch, command, flag):
    scene_path, trace_path = artifacts
    predicted = []
    for module in (predictor_module, selection_module, evaluate_module):
        real = module.noisy_predict
        monkeypatch.setattr(module, "noisy_predict",
                            lambda *a, real=real, **k:
                            predicted.append(1) or real(*a, **k))
    out = tmp_path / "out"
    args = {"select": ["--out", str(out)],
            "sweep": ["--axis", "K", "--values", "2", "--out-dir",
                      str(out)]}[command]
    assert run(command, "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", "density", "--predictor",
               "noisy", "--k", "2", "--frames", "3", flag,
               *args) == EXIT_VALIDATION
    assert not out.exists()
    assert predicted == []


def test_select_and_sweep_share_selection_defaults():
    parser = build_parser()
    select = parser.parse_args(["select", "--scene", "s", "--trace", "t",
                                "--out", "o"])
    sweep = parser.parse_args(["sweep", "--scene", "s", "--trace", "t",
                               "--axis", "K", "--values", "1"])
    dests = ("strategy", "k", "frames", "tau", "epochs", "seed", "terms",
             "sigma", "pseudo_stages")
    assert {d: getattr(select, d) for d in dests} \
        == {d: getattr(sweep, d) for d in dests}


def test_sweep_rows_and_resume(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    out = tmp_path / "sweep"
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "K", "--values", "2,3",
               "--frames", "3", "--out-dir", str(out)) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert (out / "cov_K_2_0.pgm").exists()
    assert (out / "den_K_3_0.pgm").exists()
    # resume: nothing new to do
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "K", "--values", "2,3",
               "--frames", "3", "--out-dir", str(out)) == EXIT_OK
    assert (out / "sweep.csv").read_text().splitlines() == lines


def test_sweep_score_terms_axis(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    out = tmp_path / "terms"
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "ScoreTerms", "--values",
               "sc,sc+ad,sc+vd,sc+ad+vd", "--frames", "3", "--k", "3",
               "--out-dir", str(out)) == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert len(rows) == 5
    assert all(",ok," in r for r in rows[1:])


def test_select_rejects_nan_camera_coordinate(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    cfg = json.loads(scene_path.read_text())
    cfg["cameras"][0]["position"][0] = float("nan")
    bad = tmp_path / "nan_scene.json"
    bad.write_text(json.dumps(cfg))
    assert "NaN" in bad.read_text()
    assert run("select", "--scene", str(bad), "--trace", str(trace_path),
               "--strategy", "geometric", "--k", "3", "--frames", "4",
               "--out", str(tmp_path / "sel.json")) == EXIT_VALIDATION
    assert not (tmp_path / "sel.json").exists()


@pytest.mark.parametrize("command", ["select", "validate"])
def test_two_entry_camera_position_is_validation_error(artifacts, tmp_path,
                                                        command):
    scene_path, trace_path = artifacts
    cfg = json.loads(scene_path.read_text())
    del cfg["cameras"][0]["position"][2]
    bad = tmp_path / "short_scene.json"
    bad.write_text(json.dumps(cfg))
    args = ["--scene", str(bad), "--trace", str(trace_path)]
    if command == "select":
        args += ["--k", "3", "--frames", "4",
                 "--out", str(tmp_path / "sel.json")]
    assert run(command, *args) == EXIT_VALIDATION


def test_eval_and_validate_accept_artifact_with_scene_id(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--k", "3", "--frames", "4",
               "--out", str(sel)) == EXIT_OK
    data = json.loads(sel.read_text())
    assert "scene_id" not in data
    old = tmp_path / "old_sel.json"
    old.write_text(json.dumps(dict(data, scene_id="scene")))
    reports = []
    for path in (sel, old):
        report = tmp_path / f"report_{path.stem}.json"
        assert run("eval", "--scene", str(scene_path), "--trace",
                   str(trace_path), "--selection", str(path),
                   "--use-trained", "--out", str(report)) == EXIT_OK
        assert run("validate", "--scene", str(scene_path), "--trace",
                   str(trace_path), "--selection", str(path)) == EXIT_OK
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_bad_grid_spec_is_validation_error(tmp_path):
    code = run("scene-gen", "--cameras", "4", "--grid", "banana",
               "--out-dir", str(tmp_path))
    assert code == EXIT_VALIDATION
