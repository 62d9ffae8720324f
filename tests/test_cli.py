import json

import pytest

from viewsel.cli import (EXIT_NON_CONVERGED, EXIT_OK, EXIT_VALIDATION, main)


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


def test_bad_grid_spec_is_validation_error(tmp_path):
    code = run("scene-gen", "--cameras", "4", "--grid", "banana",
               "--out-dir", str(tmp_path))
    assert code == EXIT_VALIDATION
