"""Deterministic serialization helpers: canonical JSON, spec hashes, PGM
heatmaps, and the one checker of input: JSON values and finite numbers.

Artifacts are written from dataclasses (dataclasses.asdict), so a class's
fields are its artifact keys. Every reader checks its input through the
require_* functions here, which raise ValueError naming what is wrong."""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import fields

import numpy as np


def canonical_json(obj) -> str:
    """Stable JSON text: sorted keys, minimal separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    """Write canonical_json(obj) to path. The text is built before the file
    is opened, so an object that cannot be written leaves the file as it
    was."""
    text = canonical_json(obj)
    with open(path, "w") as f:
        f.write(text)


def read_json(path):
    with open(path) as f:
        return json.load(f)


_KINDS = {dict: "a JSON object", list: "a JSON array", str: "a string",
          bool: "true or false"}


def require_kind(value, kind: type, what: str):
    """value, which must be of kind: dict, list, str or bool, the JSON
    object, array, string and true/false."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {_KINDS[kind]}, not "
                         f"{type(value).__name__}")
    return value


def require_object(value, what: str, keys=()) -> dict:
    """value, which must be a JSON object holding each of keys; other keys
    are allowed."""
    missing = [k for k in keys if k not in require_kind(value, dict, what)]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(map(repr, missing))}")
    return value


def require_fields(value, cls, what: str) -> dict:
    """A copy of value, which must be a JSON object whose keys are exactly
    the fields of the dataclass cls."""
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(require_object(value, what, names)) - set(names))
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    return dict(value)


def require_int(value, what: str) -> int:
    """value, which must be an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, not "
                         f"{type(value).__name__}")
    return value


def require_seed(value, what: str = "seed") -> int:
    """value, which must be an integer >= 0, as numpy's seeds are."""
    if require_int(value, what) < 0:
        raise ValueError(f"{what} must be >= 0, not {value}")
    return value


def require_real(value, what: str) -> float:
    """value as a float; it must be a finite real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, not "
                         f"{type(value).__name__}")
    try:
        real = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(real):
        raise ValueError(f"{what} must be finite, not {real}")
    return real


def require_pair(value, what: str) -> tuple:
    """The two items (lo, hi) of value, which must unpack into two."""
    try:
        lo, hi = value
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a (lo, hi) pair, not "
                         f"{value!r}") from None
    return lo, hi


def require_finite(values, what: str) -> np.ndarray:
    """values as a float array; raises ValueError if any entry is NaN or
    infinite, which would otherwise land silently in some grid cell."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def spec_hash(obj) -> str:
    """Short stable hash of a serializable configuration object."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


def write_pgm(path, values: np.ndarray) -> None:
    """8-bit binary PGM heatmap, max-normalized (flat maps render black)."""
    v = np.asarray(values, dtype=float)
    vmax = v.max()
    img = np.zeros(v.shape, dtype=np.uint8) if vmax <= 0 else \
        np.clip(v / vmax * 255.0, 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
