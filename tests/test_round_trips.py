"""Property-based round trips through the scene, trace and selection
artifacts, each through its on-disk text form."""

import csv
import json
import math
import re
import tempfile
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from viewsel import CameraPose, CrowdFrame, GroundGrid, Scene
from viewsel.crowd import trace_from_csv, trace_to_csv
from viewsel.selection import (SelectionState, _initial_state, add_view,
                               random_select)
from viewsel.serialize import canonical_json

from conftest import assert_coverage_derived, random_small_scene
from reference import (ref_project_footprint, ref_trace_from_csv,
                       ref_trace_to_csv)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def scenes(draw):
    grid = GroundGrid(height_cells=draw(st.integers(1, 25)),
                      width_cells=draw(st.integers(1, 25)),
                      cell_size_m=draw(st.floats(0.05, 5.0)),
                      origin=(draw(finite), draw(finite)))
    ox, oy = grid.origin
    ex, ey = grid.extent_m
    cameras = [CameraPose(id=f"cam{i}",
                          position_3d=(draw(st.floats(ox - 5, ox + ex + 5)),
                                       draw(st.floats(oy - 5, oy + ey + 5)),
                                       draw(st.floats(0.1, 50.0))),
                          yaw=draw(st.floats(-math.pi, math.pi)),
                          pitch=draw(st.floats(-math.pi / 2, 0.5)),
                          horizontal_fov_rad=draw(st.floats(0.05, 3.0)),
                          vertical_fov_rad=draw(st.floats(0.05, 3.0)),
                          max_range_m=draw(st.floats(0.1, 100.0)))
               for i in range(draw(st.integers(1, 5)))]
    return Scene(grid=grid, cameras=cameras)


@given(scenes())
@settings(max_examples=100, deadline=None)
def test_scene_config_round_trip(scene):
    back = Scene.from_config(json.loads(canonical_json(scene.to_config())))
    assert back == scene
    assert back.grid == scene.grid
    assert back.cameras == scene.cameras
    for a, b in zip(back.footprints, scene.footprints):
        assert a.camera_id == b.camera_id
        assert np.array_equal(a.mask, b.mask)


@given(scenes())
@settings(max_examples=100, deadline=None)
def test_footprints_equal_full_grid_reference(scene):
    """Any origin and cell size, cameras on or off the grid: the range-box
    projection has the bits of the full-grid test."""
    for cam, fp in zip(scene.cameras, scene.footprints, strict=True):
        assert np.array_equal(fp.mask,
                              ref_project_footprint(cam, scene.grid))


frames = st.lists(
    st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(allow_nan=False, allow_infinity=False)),
             max_size=6),
    max_size=6)


@given(frames, st.integers(0, 1000))
@settings(max_examples=100, deadline=None)
def test_trace_csv_round_trip(people_per_frame, first_id):
    trace = [CrowdFrame(frame_id=first_id + 3 * k, positions=people)
             for k, people in enumerate(people_per_frame)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        trace_to_csv(trace, path)
        assert trace_from_csv(path) == trace


# signed zeros, subnormals and extremes, whose text form float() must read
# back bit for bit
special = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320,
                           2.2250738585072014e-308, 1e300, -1e300,
                           1.7976931348623157e308, 0.1])


@given(st.lists(st.tuples(st.integers(-3, 40),
                          st.lists(st.tuples(special | finite,
                                             special | finite),
                                   max_size=5)),
                max_size=6),
       st.permutations(["frame_id", "person_idx", "x_m", "y_m", "note"]),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_trace_from_csv_equals_dictreader_reference(frames_drawn, header,
                                                    rnd):
    """Rows of a frame may be interleaved with other frames' rows, frame
    ids may repeat or come unsorted, an empty frame is one row with empty
    person fields, and the columns come in any order beside an extra one."""
    rows = []
    for fid, people in frames_drawn:
        if not people:
            rows.append({"frame_id": fid, "person_idx": "", "x_m": "",
                         "y_m": "", "note": "empty"})
        for idx, (x, y) in enumerate(people):
            rows.append({"frame_id": fid, "person_idx": idx, "x_m": repr(x),
                         "y_m": repr(y), "note": ""})
    rnd.shuffle(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(header)
            for row in rows:
                writer.writerow([row[c] for c in header])
                if rnd.random() < 0.1:
                    f.write("\r\n")  # a blank line, which both skip
        got, want = trace_from_csv(path), ref_trace_from_csv(path)
    assert got == want
    assert [f.positions.tobytes() for f in got] \
        == [f.positions.tobytes() for f in want]


# text forms of x and y that float() and loadtxt read to the same bits
coordinate_texts = finite.map(repr) | special.map(repr) | st.sampled_from(
    ["nan", "-nan", "inf", "-inf", "Infinity", "5e-324", "-0.0", "1e999",
     " 2.5", "+.5e-3", "7."])
# an extra column's ASCII values, without a delimiter, quote or line end
notes = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                              exclude_characters=',"'), max_size=8)


def _read_both(path):
    """trace_from_csv, with whether it called np.loadtxt, and the
    csv.DictReader reference."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got = trace_from_csv(path)
    return got, loadtxt.called, ref_trace_from_csv(path)


def _same_frames(got, want):
    """Equal frame ids, each a Python int, and equal position bits (a nan
    position makes frames unequal under ==)."""
    assert [f.frame_id for f in got] == [f.frame_id for f in want]
    assert [type(f.frame_id) for f in got] == [int] * len(got)
    assert [f.positions.shape for f in got] \
        == [f.positions.shape for f in want]
    assert [f.positions.tobytes() for f in got] \
        == [f.positions.tobytes() for f in want]


@given(st.lists(st.tuples(st.integers(-3, 40),
                          st.lists(st.tuples(coordinate_texts,
                                             coordinate_texts, notes),
                                   min_size=1, max_size=5)),
                max_size=6),
       st.permutations(["frame_id", "person_idx", "x_m", "y_m", "note"]),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_bulk_trace_read_equals_the_csv_loop(frames_drawn, header, rnd):
    """A trace with no empty frame, in ASCII with no quote, is read by one
    np.loadtxt call to the frames and bits that the csv loop reads: special
    values, an extra column, any column order, blank lines and frames whose
    rows interleave."""
    rows = [{"frame_id": fid, "person_idx": idx, "x_m": x, "y_m": y,
             "note": note}
            for fid, people in frames_drawn
            for idx, (x, y, note) in enumerate(people)]
    rnd.shuffle(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        with open(path, "w", newline="") as f:
            f.write(",".join(header) + "\r\n")
            for row in rows:
                f.write(",".join(str(row[c]) for c in header) + "\r\n")
                if rnd.random() < 0.1:
                    f.write("\r\n")
        got, bulk, want = _read_both(path)
    assert bulk
    _same_frames(got, want)


@pytest.mark.parametrize("body, reaches_loadtxt", [
    ("0,0,1.0,2.0,a\r\n1,,,,empty\r\n", True),
    ('0,0,"1.0",2.0,a\r\n', False),
    ('0,0,1.0,2.0,"two\r\nlines"\r\n1,0,3.0,4.0,b\r\n', False),
    ("0,0,1_0,2.0,a\r\n", True),
    ("0,0,1.0,2.0,caf\u00e9\r\n", False),
    ("\u0663,0,1.0,2.0,a\r\n", False),
], ids=["empty-frame", "quoted", "quoted-multiline", "underscore",
        "non-ascii-note", "non-ascii-digit"])
def test_trace_only_python_reads_goes_to_the_loop(tmp_path, body,
                                                  reaches_loadtxt):
    path = tmp_path / "trace.csv"
    path.write_text("frame_id,person_idx,x_m,y_m,note\r\n" + body,
                    encoding="utf-8", newline="")
    got, bulk, want = _read_both(path)
    assert bulk == reaches_loadtxt
    assert got and len(got[0].positions)
    _same_frames(got, want)


@pytest.mark.parametrize("body, message, reaches_loadtxt", [
    ("0,0,1.0,2.0\n0,1,\U0001f600,2.0\n",
     "trace line 3: could not convert string to float: '\U0001f600'",
     False),
    ("\U0001f600,0,1.0,2.0\n",
     "trace line 2: invalid literal for int() with base 10: '\U0001f600'",
     False),
    ("0,0,\x1c3,2.0\n",
     "trace line 2: could not convert string to float: '\\x1c3'", False),
    ('0,0,"1,5",2.0\n',
     "trace line 2: could not convert string to float: '1,5'", False),
    ("0,0,1.0,2.0\n 5,0,1.0\n",
     "trace line 3: 3 fields, expected at least 4", True),
], ids=["astral-x", "astral-frame-id", "separator", "quoted", "short-row"])
def test_trace_loop_names_the_faulty_line(tmp_path, body, message,
                                          reaches_loadtxt):
    """Non-ASCII text never reaches np.loadtxt, which has crashed the
    process on a character above U+FFFF; nor does a \\x1c-\\x1f separator,
    which loadtxt strips and float() refuses."""
    path = tmp_path / "trace.csv"
    path.write_text("frame_id,person_idx,x_m,y_m\n" + body,
                    encoding="utf-8", newline="")
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_from_csv(path)
    assert loadtxt.called == reaches_loadtxt


BULK_READABLE = ("frame_id,person_idx,x_m,y_m\r\n0,0,1.0,2.0\r\n"
                 "0,1,3.5,-4.25\r\n1,0,5.0,6.0\r\n")


@pytest.mark.parametrize("where", ["start", "middle", "end"])
@pytest.mark.parametrize("byte", ['"', "\x1c", "\x1d", "\x1e", "\x1f"])
def test_a_loop_only_byte_anywhere_sends_the_file_to_the_loop(
        tmp_path, byte, where):
    """Each byte of crowd._LOOP_ONLY, at the start, middle or end of a file
    that loadtxt otherwise reads, sends it to the csv loop unread by
    loadtxt."""
    path = tmp_path / "trace.csv"
    at = {"start": 0, "middle": len(BULK_READABLE) // 2,
          "end": len(BULK_READABLE)}[where]
    path.write_text(BULK_READABLE[:at] + byte + BULK_READABLE[at:],
                    encoding="ascii", newline="")
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt, \
            mock.patch("viewsel.crowd._csv_trace") as loop:
        assert trace_from_csv(path) is loop.return_value
    loop.assert_called_once_with(path)
    assert not loadtxt.called


def test_the_file_without_a_loop_only_byte_is_read_in_bulk(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text(BULK_READABLE, encoding="ascii", newline="")
    got, bulk, want = _read_both(path)
    assert bulk
    _same_frames(got, want)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["frame_id,person_idx,x_m,y_m\r\n",
                                  "frame_id,person_idx,x_m,y_m",
                                  "frame_id,person_idx,x_m,y_m\r\n\r\n\n",
                                  ""])
def test_trace_with_no_rows_reads_empty_without_warning(tmp_path, text):
    path = tmp_path / "trace.csv"
    path.write_text(text, newline="")
    assert trace_from_csv(path) == ref_trace_from_csv(path) == []


@given(st.lists(st.tuples(st.integers(0, 2 ** 63 - 1)
                          | st.integers(0, 40).map(np.int64),
                          st.lists(st.tuples(special | st.floats(),
                                             special | st.floats()),
                                   max_size=4)),
                max_size=6))
@settings(max_examples=100, deadline=None)
def test_trace_writer_bytes_equal_csv_writer(frames_drawn):
    """Special floats, empty frames and numpy-integer frame ids are written
    in csv.writer's bytes."""
    trace = [CrowdFrame(frame_id=fid, positions=people)
             for fid, people in frames_drawn]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        trace_to_csv(trace, got)
        ref_trace_to_csv(trace, want)
        assert got.read_bytes() == want.read_bytes()


@given(st.integers(0, 2 ** 31 - 1), st.data())
@settings(max_examples=50, deadline=None)
def test_selection_artifact_round_trip(seed, data):
    scene = random_small_scene(np.random.default_rng(seed))
    selected = data.draw(st.lists(st.sampled_from(scene.camera_ids),
                                  min_size=1, unique=True))
    with mock.patch.object(Scene, "visibility_of", autospec=True,
                           side_effect=Scene.visibility_of) as union:
        state = SelectionState(selected=tuple(selected), scene=scene,
                               non_converged=data.draw(st.booleans()))
        artifact = json.loads(canonical_json(state.to_dict()))
        if data.draw(st.booleans()):
            artifact["scene_id"] = "scene"  # written by older versions
        back = SelectionState.from_dict(artifact, scene)
        # every construction path keeps the scene and derives the
        # coverage from it; a non-converged run_avs is checked in
        # test_selection.py
        first = _initial_state(scene, selected[0])
        flipped = replace(state, non_converged=not state.non_converged)
        states = [state, back, first, flipped,
                  random_select(scene, len(selected), seed=seed)]
        if len(scene.camera_ids) > 1:
            states.append(add_view(first, lambda group, candidates: (
                data.draw(st.integers(0, len(candidates) - 1)), None)))
        # a mask is computed on its first read, once
        assert union.call_count == 0
        masks = [s.combined_mask for s in states]
        assert union.call_count == len(states)
        assert all(s.combined_mask is m for s, m in zip(states, masks))
        assert union.call_count == len(states)
    for s in states:
        assert_coverage_derived(s, scene)
    # states compare and hash by what to_dict records
    assert back == state and hash(back) == hash(state)
    assert back.to_dict() == state.to_dict()
    assert flipped != state
    assert first == SelectionState(selected=(selected[0],), scene=scene,
                                   history=((selected[0], None),))
    with pytest.raises(FrozenInstanceError):
        state.combined_mask = ~state.combined_mask
    with pytest.raises(TypeError):
        SelectionState(selected=tuple(selected), scene=scene,
                       combined_mask=state.combined_mask)
    with pytest.raises(TypeError):
        replace(state, combined_mask=state.combined_mask)
