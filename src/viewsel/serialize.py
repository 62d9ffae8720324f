"""Deterministic serialization helpers: canonical JSON, spec hashes, and
PGM heatmaps."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def canonical_json(obj) -> str:
    """Stable JSON text: sorted keys, minimal separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w") as f:
        f.write(canonical_json(obj))


def read_json(path):
    with open(path) as f:
        return json.load(f)


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
