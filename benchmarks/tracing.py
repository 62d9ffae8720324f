"""In-memory span tracing around calls into the viewsel modules.

A Tracer replaces every binding of the public functions of the viewsel
modules (in each module and in the package namespace) with a wrapper that
records a span: name, start, end, parent span and the phase (one set-up or
one pass) it ran in. A few hot methods are only counted. `uninstall`
restores every binding it replaced. Self time, per-layer statistics and
unique-input ratios are computed from the recorded spans afterwards.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from time import perf_counter

LAYERS = ("geometry", "synth", "crowd", "scoring", "predictor", "selection",
          "metrics", "evaluate", "serialize", "cli")

# methods timed as spans, and hot methods only counted (a span per call
# would cost more than the call itself)
SPAN_METHODS = (("geometry", "Scene", "visibility_of"),)
COUNT_METHODS = (("geometry", "GroundGrid", "world_to_cell"),
                 ("geometry", "Scene", "camera"),
                 ("geometry", "Scene", "footprint"))


def _n_persons(args, kwargs, result):
    return len(args[0].persons)


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0])


# per-span work counts, summed per layer function
VALUES = {
    "crowd.rasterize_density": ("persons", _n_persons),
    "crowd.visible_persons": ("persons", _n_persons),
    "metrics.extract_peaks": ("peaks", lambda a, k, r: len(r)),
    "metrics.match_points": ("pairs", lambda a, k, r: len(r[0])),
    "crowd.trace_from_csv": ("rows",
                             lambda a, k, r: sum(len(f.persons) for f in r)),
    "serialize.read_json": ("bytes", _file_size),
    "serialize.write_json": ("bytes", _file_size),
}


class Tracer:
    """Records spans while installed; spans survive uninstall."""

    def __init__(self):
        # [phase, name, start, end, parent index, value, input key]
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = {}  # (phase, name) -> calls
        self.phase = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._masks: dict[bytes, int] = {}
        self._keys = {"predictor.noisy_predict": self._noisy_predict_key,
                      "selection.view_person_credit": self._credit_key}

    # -- input keys for unique_ratio ---------------------------------------

    def _noisy_predict_key(self, bound):
        a = bound.arguments
        vis = a["selected_visibility"]
        mask_id = self._masks.setdefault(vis.tobytes(), len(self._masks))
        ids = a.get("selected_ids")
        return (a["frame"].frame_id, a["config"].calibration.quality,
                mask_id, tuple(ids) if ids else ())

    @staticmethod
    def _credit_key(bound):
        a = bound.arguments
        return (a["camera_id"], tuple(f.frame_id for f in a["frames"]))

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        value_fn = VALUES.get(name, (None, None))[1]
        key_fn = self._keys.get(name)
        sig = inspect.signature(fn) if key_fn else None
        spans, stack = self.spans, self._stack
        clock = perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_fn(sig.bind(*args, **kwargs)) if key_fn else None
            idx = len(spans)
            span = [self.phase, name, 0.0, 0.0, stack[-1] if stack else -1,
                    None, key]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if value_fn is not None:
                span[5] = value_fn(args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = (self.phase, name)
            counts[k] = counts.get(k, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self, package: str) -> None:
        """Wrap every binding of the layers' public functions in the
        imported package and its modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._span_wrapper(f"{layer}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or
                                   mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        for methods, make in ((SPAN_METHODS, self._span_wrapper),
                              (COUNT_METHODS, self._count_wrapper)):
            for layer, cls_name, meth in methods:
                cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, make(f"{layer}.{cls_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span[:6]) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap one another)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[4] >= 0:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out = []
    for idx, s in enumerate(spans):
        t0, t1 = s[2], s[3]
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def unique_ratio(keys) -> float:
    """Distinct input keys divided by calls (0 when there were no calls)."""
    keys = list(keys)
    return len(set(keys)) / len(keys) if keys else 0.0


def phase_stats(tracer: Tracer) -> dict:
    """Per-layer statistics of each phase: `<name>.calls`, `.total_s`,
    `.self_s`, `.<value>` sums, `.unique_ratio` where keyed, and
    `top_level_s`, the summed duration of spans with no parent."""
    out: dict = {}  # phase -> {statistic: value}
    keys: dict[tuple, list] = {}
    for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
        phase, name, t0, t1, parent, value, key = s
        stats = out.setdefault(phase, {"top_level_s": 0.0})
        for stat, inc in (("calls", 1), ("total_s", t1 - t0),
                          ("self_s", self_s)):
            stats[f"{name}.{stat}"] = stats.get(f"{name}.{stat}", 0) + inc
        if value is not None:
            vname = f"{name}.{VALUES[name][0]}"
            stats[vname] = stats.get(vname, 0) + value
        if key is not None:
            keys.setdefault((phase, name), []).append(key)
        if parent == -1:
            stats["top_level_s"] += t1 - t0
    for (phase, name), ks in keys.items():
        out[phase][f"{name}.unique_ratio"] = unique_ratio(ks)
    for (phase, name), n in tracer.counts.items():
        out.setdefault(phase, {"top_level_s": 0.0})[f"{name}.calls"] = n
    return out

