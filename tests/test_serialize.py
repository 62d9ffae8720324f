import numpy as np
import pytest

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
