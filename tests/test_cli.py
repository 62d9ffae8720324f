import importlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import pytest

from viewsel import CrowdFrame, SelectionConfig
from viewsel import cli as cli_module
from viewsel import predictor as predictor_module
from viewsel import selection as selection_module
from viewsel.cli import (EXIT_IO, EXIT_NON_CONVERGED, EXIT_OK,
                         EXIT_VALIDATION, SWEEP_FIELDS, build_parser, main)

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


def test_scene_gen_checks_its_seed(tmp_path, capsys):
    out = tmp_path / "scene"
    assert run("scene-gen", "--cameras", "3", "--grid", "10x10", "--seed",
               "-1", "--out-dir", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: seed must be >= 0, not -1\n"
    assert not out.exists()


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


def test_eval_refuses_scene_hash_mismatch(artifacts, tmp_path, capsys):
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
    assert capsys.readouterr().err == (
        "error: selection artifact was produced for a different scene "
        "(hash mismatch); pass --force to override\n")
    assert run("eval", "--scene", str(other / "scene.json"), "--trace",
               str(trace_path), "--selection", str(sel), "--force",
               "--out", str(rep)) == EXIT_OK
    # validate, which has no --force, refuses it with the same message
    assert run("validate", "--scene", str(other / "scene.json"), "--trace",
               str(other / "trace.csv"), "--selection",
               str(sel)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: selection artifact was produced for a different scene "
        "(hash mismatch)\n")


def test_validate_catches_unknown_selection(artifacts, tmp_path):
    scene_path, trace_path = artifacts
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"selected": ["nope"]}))
    code = run("validate", "--scene", str(scene_path), "--selection",
               str(bad))
    assert code == EXIT_VALIDATION
    assert run("validate", "--scene", str(scene_path), "--trace",
               str(trace_path)) == EXIT_OK


def test_validate_refuses_a_scene_without_cameras(artifacts, tmp_path,
                                                 capsys):
    scene_path, trace_path = artifacts
    cfg = json.loads(scene_path.read_text())
    cfg["cameras"] = []
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run("validate", "--scene", str(empty)) == EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: scene has no cameras\n"
    assert run("validate", "--scene", str(empty), "--trace",
               str(trace_path)) == EXIT_VALIDATION


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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_person_is_validation_error(artifacts, tmp_path, capsys,
                                               axis, value):
    # a non-finite coordinate is named as such, not as off the grid
    scene_path, _ = artifacts
    xy = f"{value},1.0" if axis == "x" else f"1.0,{value}"
    trace = tmp_path / "trace.csv"
    trace.write_text(f"frame_id,person_idx,x_m,y_m\n0,0,1.5,2.0\n0,1,{xy}\n")
    capsys.readouterr()
    assert run("validate", "--scene", str(scene_path), "--trace",
               str(trace)) == EXIT_VALIDATION
    x, y = (float(v) for v in xy.split(","))
    assert capsys.readouterr().err == (
        f"error: frame 0: person at ({x}, {y}) has a non-finite position\n")


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


def test_scene_gen_refuses_a_grid_no_index_holds(tmp_path, capsys):
    out = tmp_path / "scene"
    assert run("scene-gen", "--cameras", "3", "--grid",
               "10000000000x10000000000", "--out-dir",
               str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: grid 10000000000x10000000000 has more cells than an index "
        "can hold\n")
    assert not out.exists()


@pytest.mark.parametrize("h, cell_size, message", [
    (40, 1e308, "grid extent must be finite, not inf"),
    (10 ** 400, 0.5, "grid extent is too large for a float")])
@pytest.mark.parametrize("command", ["validate", "select", "scene-gen"])
def test_overflowing_grid_is_validation_error(artifacts, tmp_path, capsys,
                                              command, h, cell_size, message):
    # a grid whose extent in meters no float holds
    scene_path, trace_path = artifacts
    cfg = json.loads(scene_path.read_text())
    cfg["grid"].update(h=h, cell_size_m=cell_size)
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = {"validate": ["--scene", str(huge)],
            "select": ["--scene", str(huge), "--trace", str(trace_path),
                       "--k", "2", "--frames", "2", "--out", str(out)],
            "scene-gen": ["--cameras", "3", "--grid", f"{h}x40",
                          "--cell-size", str(cell_size),
                          "--out-dir", str(out)]}[command]
    capsys.readouterr()
    assert run(command, *args) == EXIT_VALIDATION
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_eval_rejects_unknown_trained_predictor_key(artifacts, tmp_path,
                                                    capsys):
    """eval --use-trained refuses a trained predictor with an unknown key,
    and an artifact without one, rather than fall back to the predictor
    flags; plain eval reads no trained predictor, and validate accepts an
    artifact without one."""
    scene_path, trace_path = artifacts
    sel = tmp_path / "sel.json"
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--k", "2", "--frames", "3",
               "--out", str(sel)) == EXIT_OK
    data = json.loads(sel.read_text())
    files = ["--scene", str(scene_path), "--trace", str(trace_path),
             "--selection", str(sel)]
    out = tmp_path / "rep.json"
    data["predictor_trained"]["bogus_gain"] = 1.0
    without = {k: v for k, v in data.items() if k != "predictor_trained"}
    for artifact, named in ((data, "bogus_gain"),
                            (without, "predictor_trained")):
        sel.write_text(json.dumps(artifact))
        capsys.readouterr()
        assert run("eval", *files, "--use-trained",
                   "--out", str(out)) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert not out.exists()
        assert run("eval", *files, "--out", str(out)) == EXIT_OK
        out.unlink()
    assert run("validate", *files) == EXIT_OK


@pytest.mark.parametrize("artifact, message", [
    *(pytest.param({"selected": selected, "non_converged": False},
                   message, id=name)
      for name, selected, message in (
          ("5", 5, "'selected' must be a JSON array, not int"),
          ("c0", "c0", "'selected' must be a JSON array, not str"),
          ("selected2", [0, 1],
           "'selected' entry must be a string, not int"),
          ("empty", [], "selection has no selected views"))),
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
    ("seed", -1),
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


@pytest.mark.parametrize("spec_hash", [float("nan"), ["0123"], 7, None])
def test_bad_spec_hash_is_validation_error_and_keeps_the_report(
        artifacts, selection, tmp_path, monkeypatch, capsys, spec_hash):
    scene_path, trace_path = artifacts
    out = tmp_path / "rep.json"
    args = ("eval", "--scene", str(scene_path), "--trace", str(trace_path),
            "--selection", str(selection), "--out", str(out))
    assert run(*args) == EXIT_OK
    before = out.read_bytes()
    data = json.loads(selection.read_text())
    data["spec_hash"] = spec_hash
    selection.write_text(json.dumps(data))
    evaluated = []
    monkeypatch.setattr(cli_module, "evaluate",
                        lambda *a, **k: evaluated.append(1))
    capsys.readouterr()
    assert run(*args) == EXIT_VALIDATION
    assert "'spec_hash' must be a string" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert evaluated == []


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
                                  "--sigma=inf", "--kernel-sigma=1e-200",
                                  "--kernel-sigma=0.1"])
@pytest.mark.parametrize("command", ["select", "sweep"])
def test_bad_selection_number_is_validation_error(artifacts, tmp_path,
                                                  monkeypatch, command, flag):
    scene_path, trace_path = artifacts
    predicted = []
    for module, name in ((predictor_module, "noisy_predict"),
                         (selection_module, "noisy_predict"),
                         (selection_module, "noisy_draw"),
                         (evaluate_module, "noisy_predict")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
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


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_sweep_rejects_repeats_below_one(artifacts, tmp_path, capsys,
                                         repeats):
    scene_path, trace_path = artifacts
    out = tmp_path / "sweep"
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "K", "--values", "2",
               "--frames", "3", f"--repeats={repeats}",
               "--out-dir", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: --repeats")
    assert not (out / "sweep.csv").exists()


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


def test_every_selection_config_field_has_a_select_flag():
    args = build_parser().parse_args([
        "select", "--scene", "s", "--trace", "t", "--out", "o",
        "--strategy", "mask", "--k", "3", "--frames", "7", "--tau", "9.5",
        "--epochs", "11", "--seed", "4", "--terms", "sc,vd", "--sigma", "0.5",
        "--pseudo-stages", "none"])
    config = cli_module._selection_config_from_args(args)
    default = SelectionConfig()
    assert [f.name for f in fields(config)
            if getattr(config, f.name) == getattr(default, f.name)] == []


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


def _sweep_k(scene_path, trace_path, out, values="2,3,4"):
    return run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "K", "--values", values,
               "--frames", "3", "--out-dir", str(out))


@pytest.mark.parametrize("exc", [OSError, KeyboardInterrupt])
@pytest.mark.parametrize("failing_write", range(6))
def test_interrupted_sweep_resumes_to_the_uninterrupted_table(
        artifacts, tmp_path, monkeypatch, failing_write, exc):
    # three cells write two maps each; one of those writes fails
    scene_path, trace_path = artifacts
    whole = tmp_path / "whole"
    assert _sweep_k(scene_path, trace_path, whole) == EXIT_OK
    real = cli_module.write_pgm
    writes = []

    def write_pgm(path, values):
        writes.append(path)
        if len(writes) == failing_write + 1:
            raise exc("interrupted")
        real(path, values)

    out = tmp_path / "cut"
    monkeypatch.setattr(cli_module, "write_pgm", write_pgm)
    if exc is OSError:
        assert _sweep_k(scene_path, trace_path, out) == EXIT_IO
    else:
        with pytest.raises(KeyboardInterrupt):
            _sweep_k(scene_path, trace_path, out)
    # the cells that finished are in the table already
    finished = failing_write // 2
    assert len((out / "sweep.csv").read_text().splitlines()) == 1 + finished
    monkeypatch.setattr(cli_module, "write_pgm", real)
    assert _sweep_k(scene_path, trace_path, out) == EXIT_OK
    names = sorted(p.name for p in whole.iterdir())
    assert sorted(p.name for p in out.iterdir()) == names
    assert "index.txt" not in names
    for name in names:
        assert (out / name).read_bytes() == (whole / name).read_bytes()
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["2", "3", "4"]


def test_sweep_resumes_from_the_table_alone(artifacts, tmp_path):
    # the rows of sweep.csv are the whole record: a cell whose row is
    # deleted runs again, and one whose row is kept does not
    scene_path, trace_path = artifacts
    out = tmp_path / "sweep"
    assert _sweep_k(scene_path, trace_path, out) == EXIT_OK
    header, first, second, third = \
        (out / "sweep.csv").read_bytes().splitlines(True)
    (out / "sweep.csv").write_bytes(header + first + third)
    (out / "cov_K_3_0.pgm").unlink()
    assert _sweep_k(scene_path, trace_path, out) == EXIT_OK
    assert (out / "sweep.csv").read_bytes() \
        == header + first + third + second
    assert (out / "cov_K_3_0.pgm").exists()


def test_sweep_refuses_a_table_with_another_header(artifacts, tmp_path,
                                                   capsys):
    scene_path, trace_path = artifacts
    out = tmp_path / "sweep"
    out.mkdir()
    fields = list(SWEEP_FIELDS)
    fields[3] = "hash"
    table = (",".join(fields) + "\r\n").encode()
    (out / "sweep.csv").write_bytes(table)
    capsys.readouterr()
    assert _sweep_k(scene_path, trace_path, out) == EXIT_VALIDATION
    assert "is not a sweep table" in capsys.readouterr().err
    assert (out / "sweep.csv").read_bytes() == table
    assert [p.name for p in out.iterdir()] == ["sweep.csv"]


@pytest.mark.parametrize("axis, values, message", [
    ("K", "2,0", "k_max and n_frames must be >= 1"),
    ("F", "3,x", "invalid literal for int()"),
    ("PseudoStages", "none,bogus", "unknown pseudo_stages 'bogus'"),
    ("Strategy", "geometric,bogus", "unknown strategy 'bogus'"),
    ("ScoreTerms", "sc,sc+bogus", "unknown score term 'bogus'"),
    ("ScoreTerms", "sc,sc+sc", "repeated score term 'sc'"),
])
def test_bad_sweep_value_is_rejected_before_any_cell_runs(
        artifacts, tmp_path, monkeypatch, capsys, axis, values, message):
    scene_path, trace_path = artifacts
    ran = []
    monkeypatch.setattr(cli_module, "run_selection",
                        lambda *a: ran.append(a))
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", axis, "--values", values,
               "--frames", "3", "--out-dir", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("axis, values, flags", [
    ("Strategy", "mask,density", []),
    ("Strategy", "geometric,mask", []),
    ("K", "2,3", ["--strategy", "density"]),
])
def test_sweep_refuses_what_select_refuses_before_any_cell_runs(
        artifacts, tmp_path, monkeypatch, capsys, axis, values, flags):
    # select refuses an active strategy under the default oracle predictor;
    # a sweep refuses every such cell before any cell runs
    scene_path, trace_path = artifacts
    common = ("--scene", str(scene_path), "--trace", str(trace_path),
              "--frames", "3", *flags)
    capsys.readouterr()
    assert run("select", *common, "--strategy", "mask",
               "--out", str(tmp_path / "sel.json")) == EXIT_VALIDATION
    message = capsys.readouterr().err
    assert message == "error: active strategies need --predictor noisy\n"
    ran = []
    monkeypatch.setattr(cli_module, "run_selection",
                        lambda *a: ran.append(a))
    out = tmp_path / "sweep"
    assert run("sweep", *common, "--axis", axis, "--values", values,
               "--out-dir", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == message
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["random", "geometric", "mask",
                                      "density"])
@pytest.mark.parametrize("header_only, flags, axis, values, message", [
    pytest.param(False, ["--frames", "20"], "F", "3,20",
                 "cannot select 20 frames from 8", id="frames-20"),
    pytest.param(False, ["--k", "9", "--frames", "4"], "K", "2,9",
                 "cannot select 9 views from 6 cameras", id="k-9"),
    pytest.param(True, ["--frames", "3"], "K", "1,2",
                 "cannot select 3 frames from 0", id="header-only"),
])
def test_select_and_sweep_refuse_a_run_past_the_scene_or_trace(
        artifacts, tmp_path, monkeypatch, capsys, strategy, header_only,
        flags, axis, values, message):
    # more frames than the trace holds, more views than the scene has
    # cameras, and a trace with no frame: every strategy is refused before
    # any draw, by select and by a sweep before any of its cells runs
    scene_path, trace_path = artifacts
    if header_only:
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("frame_id,person_idx,x_m,y_m\n")
    drawn = []
    for module, name in ((predictor_module, "noisy_draw"),
                         (predictor_module, "oracle_predict"),
                         (selection_module, "noisy_draw"),
                         (CrowdFrame, "footprint_density")):
        monkeypatch.setattr(module, name, lambda *a, **k: drawn.append(a))
    common = ["--scene", str(scene_path), "--trace", str(trace_path),
              "--strategy", strategy, "--predictor", "noisy", *flags]
    sel, out = tmp_path / "sel.json", tmp_path / "sweep"
    capsys.readouterr()
    assert run("select", *common, "--out", str(sel)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert run("sweep", *common, "--axis", axis, "--values", values,
               "--out-dir", str(out)) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not sel.exists() and not out.exists()
    assert drawn == []


def test_sweep_refuses_a_trace_with_no_person_before_any_cell_runs(
        tmp_path, capsys):
    # eval refuses such a trace; select and sweep refuse it before any
    # selection
    out, full = tmp_path / "scene", tmp_path / "full"
    for d, count in ((out, "0,0"), (full, "5,10")):
        assert run("scene-gen", "--cameras", "4", "--grid", "20x20",
                   "--frames", "4", "--count", count,
                   "--out-dir", str(d)) == EXIT_OK
    files = ["--scene", str(out / "scene.json"),
             "--trace", str(out / "trace.csv")]
    sel = tmp_path / "sel.json"
    capsys.readouterr()
    assert run("select", *files, "--k", "2", "--frames", "3",
               "--out", str(sel)) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: no persons in any frame\n"
    assert not sel.exists()
    # the same scene's selection, made on a trace with people
    assert run("select", "--scene", str(full / "scene.json"), "--trace",
               str(full / "trace.csv"), "--k", "2", "--frames", "3",
               "--out", str(sel)) == EXIT_OK
    capsys.readouterr()
    assert run("eval", *files, "--selection", str(sel),
               "--out", str(tmp_path / "rep.json")) == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: no persons in any frame\n"
    assert not (tmp_path / "rep.json").exists()
    sweep = tmp_path / "sweep"
    assert run("sweep", *files, "--frames", "3", "--axis", "K",
               "--values", "1,2", "--out-dir", str(sweep)) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: no persons in any frame\n"
    assert not sweep.exists()


def test_sweep_refuses_a_personless_trace_at_its_first_value(tmp_path,
                                                            capsys):
    # check_run holds the persons rule, so a sweep meets it in its first
    # value's check: before --threshold-m and before any later value's
    # budget is checked, but after the first value's own budget
    out = tmp_path / "scene"
    assert run("scene-gen", "--cameras", "4", "--grid", "20x20",
               "--frames", "4", "--count", "0,0",
               "--out-dir", str(out)) == EXIT_OK
    files = ["--scene", str(out / "scene.json"),
             "--trace", str(out / "trace.csv"), "--frames", "3",
             "--threshold-m", "-1", "--axis", "K"]
    sweep = tmp_path / "sweep"
    capsys.readouterr()
    for values, message in (("2,9", "no persons in any frame"),
                            ("9,2", "cannot select 9 views from 4 cameras")):
        assert run("sweep", *files, "--values", values,
                   "--out-dir", str(sweep)) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not sweep.exists()


def _count_run_checks(monkeypatch):
    """Count the calls of check_run and of check_trace through each
    module's binding of them; returns the live counts."""
    counts = {"check_run": 0, "check_trace": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper
    for module in (cli_module, selection_module, evaluate_module):
        for name in counts:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("strategy", ["random", "geometric", "mask",
                                      "density"])
def test_select_checks_its_run_once(artifacts, tmp_path, monkeypatch,
                                    strategy):
    scene_path, trace_path = artifacts
    counts = _count_run_checks(monkeypatch)
    assert run("select", "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", strategy, "--k", "3",
               "--frames", "4", "--predictor", "noisy", "--tau", "20",
               "--epochs", "15", "--q-scale", "150",
               "--out", str(tmp_path / "sel.json")) == EXIT_OK
    assert counts == {"check_run": 1, "check_trace": 1}


def test_sweep_checks_each_value_and_each_cell_once(artifacts, tmp_path,
                                                    monkeypatch):
    # one check_run per value before any cell runs and one per cell; each
    # scans the trace, and so does each cell's evaluate
    scene_path, trace_path = artifacts
    counts = _count_run_checks(monkeypatch)
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", "K", "--values", "2,3,4",
               "--frames", "3", "--out-dir", str(tmp_path / "sweep")) \
        == EXIT_OK
    assert counts == {"check_run": 6, "check_trace": 9}


@pytest.mark.parametrize("axis, values", [
    ("K", "2,2"), ("K", "2,3,2"), ("ScoreTerms", "sc,sc+"),
    ("Strategy", "geometric,random,geometric"),
])
def test_sweep_refuses_a_repeated_value_before_any_cell_runs(
        artifacts, tmp_path, monkeypatch, capsys, axis, values):
    scene_path, trace_path = artifacts
    ran = []
    monkeypatch.setattr(cli_module, "run_selection",
                        lambda *a: ran.append(a))
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert run("sweep", "--scene", str(scene_path), "--trace",
               str(trace_path), "--axis", axis, "--values", values,
               "--frames", "3", "--out-dir", str(out)) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: sweep value ") and "repeats" in err
    assert ran == []
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("select", "--seed=-1"), ("select", "--pred-seed=-1"),
    ("sweep", "--seed=-1"), ("sweep", "--pred-seed=-1"),
    ("select", "--terms=sc,bogus"), ("select", "--terms=sc,sc"),
])
def test_negative_seed_or_unknown_term_is_validation_error(
        artifacts, tmp_path, capsys, command, flag):
    scene_path, trace_path = artifacts
    out = tmp_path / "out"
    args = {"select": ["--out", str(out)],
            "sweep": ["--axis", "K", "--values", "2", "--out-dir",
                      str(out)]}[command]
    capsys.readouterr()
    assert run(command, "--scene", str(scene_path), "--trace",
               str(trace_path), "--strategy", "geometric", "--k", "2",
               "--frames", "3", flag, *args) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "eval", "sweep", "validate"])
def test_negative_frame_id_is_validation_error(artifacts, selection,
                                               tmp_path, capsys, command):
    scene_path, _ = artifacts
    trace = tmp_path / "trace.csv"
    trace.write_text("frame_id,person_idx,x_m,y_m\n-2,0,1.5,2.0\n"
                     "0,0,3.0,4.0\n1,0,5.0,6.0\n2,0,7.0,8.0\n")
    out = tmp_path / "out"
    args = {"select": ["--strategy", "density", "--predictor", "noisy",
                       "--k", "2", "--frames", "3", "--out", str(out)],
            "eval": ["--selection", str(selection), "--use-trained",
                     "--out", str(out)],
            "sweep": ["--axis", "K", "--values", "2", "--frames", "3",
                      "--out-dir", str(out)],
            "validate": []}[command]
    capsys.readouterr()
    assert run(command, "--scene", str(scene_path), "--trace", str(trace),
               *args) == EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: frame -2: frame id must be >= 0\n")
    assert not out.exists()


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


def _fresh_python(code: str, cwd) -> list[str]:
    """The stdout lines of code run in a new interpreter that imports this
    viewsel."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        cli_module.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_a_library_selection_run_never_loads_scipy(tmp_path):
    code = """
import sys
import viewsel
print("scipy" in sys.modules)
from viewsel import (GroundGrid, SelectionConfig, generate_crowd_trace,
                     generate_scene, run_ivs)
grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
scene = generate_scene(5, grid, seed=1)
trace = generate_crowd_trace(grid, n_frames=4, count_range=(10, 20),
                             clustering=0.7, seed=2)
state, _ = run_ivs(scene, trace, SelectionConfig(k_max=3, n_frames=2))
print(len(state.selected), "scipy" in sys.modules)
"""
    assert _fresh_python(code, tmp_path) == ["False", "3 False"]


def test_no_command_and_no_evaluate_loads_scipy(tmp_path, monkeypatch):
    # the commands one after another in one fresh interpreter, then the
    # library's evaluate: none of them loads scipy. The eval run writes the
    # bytes of an eval run in a process with scipy loaded already
    files = ["--scene", "scene/scene.json", "--trace", "scene/trace.csv"]
    commands = [
        ["scene-gen", "--cameras", "6", "--grid", "40x40", "--seed", "3",
         "--frames", "8", "--count", "20,40", "--out-dir", "scene"],
        ["validate", *files],
        ["select", *files, "--strategy", "geometric", "--k", "3",
         "--frames", "4", "--out", "sel.json"],
        ["validate", *files, "--selection", "sel.json"],
        ["eval", *files, "--selection", "sel.json", "--use-trained",
         "--out", "cold.json"],
    ]
    code = f"""
import sys
from viewsel.cli import main
for argv in {commands!r}:
    print("@", argv[0], main(argv), "scipy" in sys.modules)
from viewsel import (GroundGrid, PredictorConfig, generate_crowd_trace,
                     generate_scene, random_select)
from viewsel.evaluate import evaluate
grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
scene = generate_scene(5, grid, seed=1)
trace = generate_crowd_trace(grid, 3, (20, 40), 0.7, seed=4)
report = evaluate(scene, trace, random_select(scene, 3, seed=1),
                  PredictorConfig(miss_rate=0.3, seed=2))
print("@ evaluate", report.localization.tp > 0, "scipy" in sys.modules)
"""
    lines = _fresh_python(code, tmp_path)
    assert [line for line in lines if line.startswith("@ ")] == [
        "@ scene-gen 0 False", "@ validate 0 False", "@ select 0 False",
        "@ validate 0 False", "@ eval 0 False", "@ evaluate True False"]
    monkeypatch.chdir(tmp_path)
    importlib.import_module("scipy.optimize")
    assert run(*commands[-1][:-1], "warm.json") == EXIT_OK
    assert (tmp_path / "warm.json").read_bytes() \
        == (tmp_path / "cold.json").read_bytes()
