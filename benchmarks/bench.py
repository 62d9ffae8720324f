"""viewsel benchmark: one command per workload, end-to-end or traced.

    python3 benchmarks/bench.py --workload ensemble --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's `src/`. Inputs are generated from `--seed` during set-up, which
is repeated SETUP_REPEATS times; passes then repeat the workload on those
inputs for about `--seconds` seconds. Every operation's outputs are checked,
and every pass must reproduce the first pass's digest.

Times are reported at the reference speed: each timed block is bracketed
by a fixed computation of the benchmark's own (`reference`), and its raw
seconds are scaled by REF_S over that computation's mean duration. This
cancels the machine's speed drift; raw seconds are printed as well.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the `end_to_end` metrics of BENCHMARK.json; with `--trace 1`
they are its `per_layer` metrics, measured on traced passes that alternate
with untraced ones. The line before it holds the digest, the raw times and
the metrics that are not defined on every workload. See
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from tracing import LAYERS, Tracer, phase_stats

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
# duration of reference() on the baseline machine (2 cores, Python 3.11.7)
REF_S = 0.030
_REF_POINTS = np.random.default_rng(0).uniform(4.0, 76.0, size=(1500, 2))
# layers whose work belongs to set-up; reported for one set-up plus one pass
SETUP_LAYERS = ("geometry.project_footprint.", "synth.generate_scene.",
                "crowd.generate_crowd_trace.")


def reference() -> float:
    """Seconds that one fixed computation takes right now: a Python loop
    over small numpy windows, the kind of work that dominates viewsel.
    It is the benchmark's own code, so no change to viewsel alters it; it
    measures only how fast the machine runs at the moment."""
    t0 = perf_counter()
    v = np.zeros((80, 80))
    for x, y in _REF_POINTS:
        i, j = int(y), int(x)
        ii = np.arange(i - 4, i + 5)
        jj = np.arange(j - 4, j + 5)
        d2 = ((ii - y) ** 2)[:, None] + ((jj - x) ** 2)[None, :]
        v[i - 4:i + 5, j - 4:j + 5] += np.exp(-d2 / 2.0)
    return perf_counter() - t0


class Stopwatch:
    """Times a block, with laps marked by `split`. `factor` converts its
    raw seconds to seconds at the reference speed, from reference() run
    just before and just after the block."""

    def __enter__(self):
        self.ref0 = reference()
        self.marks = [perf_counter()]
        return self

    def split(self) -> None:
        self.marks.append(perf_counter())

    def __exit__(self, *exc):
        self.split()
        self.factor = 2.0 * REF_S / (self.ref0 + reference())
        return False

    @property
    def laps(self) -> list[float]:
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def load_viewsel():
    """Import the package from this checkout's sources. Returns its layer
    modules by name (and the package as `package`) with the import's raw
    seconds and its seconds at the reference speed."""
    src = ROOT / "src"
    if not (src / "viewsel" / "__init__.py").is_file():
        raise SystemExit(f"bench: no viewsel sources under {src}")
    sys.path.insert(0, str(src))
    with Stopwatch() as sw:
        package = importlib.import_module("viewsel")
        layers = {layer: importlib.import_module(f"viewsel.{layer}")
                  for layer in LAYERS}
    if Path(package.__file__).resolve().parent != src / "viewsel":
        raise SystemExit(f"bench: imported viewsel from {package.__file__}, "
                         f"not from {src}")
    return (SimpleNamespace(package=package, **layers), sw.laps[0],
            sw.laps[0] * sw.factor)


# ---------------------------------------------------------------------------
# results and checks


@dataclass
class Pass:
    """Timings, quality and digest lines of one pass. Times are those of
    the library calls only, at the reference speed except `raw_s`."""

    seconds: float = 0.0
    raw_s: float = 0.0
    select_s: float = 0.0
    eval_s: float = 0.0
    mae: list = field(default_factory=list)
    f1: list = field(default_factory=list)
    cover: list = field(default_factory=list)
    lines: list = field(default_factory=list)

    def add(self, sw: Stopwatch, select_s=0.0, eval_s=0.0) -> None:
        self.raw_s += select_s + eval_s
        self.seconds += (select_s + eval_s) * sw.factor
        self.select_s += select_s * sw.factor
        self.eval_s += eval_s * sw.factor

    @property
    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()


class Ledger:
    """Counts attempted and failed operations; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, op) -> None:
        """Run one operation; it fails if it raises or returns problems."""
        self.attempted += 1
        try:
            problems = op()
        except Exception:
            print(f"bench: {label} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"bench: {label} failed: {problems}", file=sys.stderr)


def covered_fraction(positions: np.ndarray, mask: np.ndarray, grid) -> float:
    """Share of people whose (clamped) cell is in mask; a vectorized check
    written independently of crowd.cover_rate."""
    ox, oy = grid.origin
    j = np.clip(np.floor((positions[:, 0] - ox) / grid.cell_size_m),
                0, grid.width_cells - 1).astype(int)
    i = np.clip(np.floor((positions[:, 1] - oy) / grid.cell_size_m),
                0, grid.height_cells - 1).astype(int)
    return int(mask[i, j].sum()) / len(positions)


def footprint_union(scene, camera_ids) -> np.ndarray:
    union = np.zeros(scene.grid.shape, dtype=bool)
    for fp in scene.footprints:
        if fp.camera_id in camera_ids:
            union |= fp.mask
    return union


def check_selection(state, k: int, scene) -> list[str]:
    problems = []
    if len(set(state.selected)) != k and not state.non_converged:
        problems.append(f"{len(set(state.selected))} unique views, not {k}")
    unknown = set(state.selected) - set(scene.camera_ids)
    if unknown:
        problems.append(f"unknown views {sorted(unknown)}")
    if not np.array_equal(footprint_union(scene, state.selected),
                          state.combined_mask):
        problems.append("combined mask is not the union of the footprints")
    return problems


def check_quality(mae: float, f1: float, cover: float,
                  expected_cover: float) -> list[str]:
    problems = [f"non-finite {n}" for n, v in
                (("MAE", mae), ("F1", f1), ("cover rate", cover))
                if not math.isfinite(v)]
    if cover != expected_cover:
        problems.append(f"cover rate {cover!r} != {expected_cover!r}")
    if not (mae >= 0.0 and 0.0 <= f1 <= 1.0):
        problems.append(f"MAE {mae!r} or F1 {f1!r} out of range")
    return problems


def all_positions(trace) -> np.ndarray:
    return np.array([p.position for f in trace for p in f.persons])


def input_digest(scene, trace) -> str:
    h = hashlib.sha256(json.dumps(scene.to_config(), sort_keys=True).encode())
    h.update(all_positions(trace).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Inputs:
    scene: object
    trace: list
    positions: np.ndarray  # every person of the trace, for cover recounts
    files: dict = field(default_factory=dict)  # CLI artifacts by role
    expected: dict = field(default_factory=dict)  # CLI report checks
    held: object = None  # last result, kept as a caller's loop variable would


def _scene_and_trace(vs, grid_cells, n_cameras, scene_seed, n_frames,
                     count_range, trace_seed, **scene_kw):
    grid = vs.geometry.GroundGrid(grid_cells, grid_cells, 0.5)
    scene = vs.synth.generate_scene(n_cameras, grid, seed=scene_seed,
                                    **scene_kw)
    trace = vs.crowd.generate_crowd_trace(grid, n_frames=n_frames,
                                          count_range=count_range,
                                          clustering=0.85, seed=trace_seed)
    return Inputs(scene, trace, all_positions(trace)), \
        input_digest(scene, trace)


class Ensemble:
    """Acceptance criterion 4 on one scene: random, independent and both
    active pipelines, each followed by evaluate."""

    K, F, EPOCHS, TAU = 5, 5, 24, 30.0
    has_select = has_eval = True

    @staticmethod
    def setup(vs, seed, workdir):
        return _scene_and_trace(vs, 80, 12, 1000 + seed, 10, (80, 140),
                                2000 + seed, range_frac=(0.5, 0.8))

    def run_pass(self, vs, inp, seed, ledger) -> Pass:
        sel, scene, trace = vs.selection, inp.scene, inp.trace
        K, F = self.K, self.F

        def predictor():
            return vs.predictor.PredictorConfig(
                miss_rate=0.9, position_jitter_m=1.5, count_noise_rel=0.2,
                seed=seed, q_scale=400.0, distance_falloff_m=6.0,
                crowding_half=0.5)

        def config(strategy, stages):
            return sel.SelectionConfig(k_max=K, n_frames=F, strategy=strategy,
                                       tau=self.TAU, epochs=self.EPOCHS,
                                       pseudo_stages=stages, seed=seed)

        def random_pipeline():
            state = sel.random_select(scene, K, seed=seed)
            return state, sel.train_after_selection(
                scene, trace[:F], state, config("random", "none"),
                predictor())

        def ivs_pipeline():
            cfg = config("geometric", "modeltrain")
            state, dataset = sel.run_ivs(scene, trace, cfg, predictor())
            frames = [f for f in trace if f.frame_id in dataset.frame_ids]
            return state, sel.train_after_selection(scene, frames, state, cfg,
                                                    predictor())

        def avs_pipeline(strategy):
            state, _, trained = sel.run_avs(scene, trace,
                                            config(strategy, "both"),
                                            predictor())
            return state, trained

        p = Pass()
        for name, pipeline in (("random", random_pipeline),
                               ("ivs", ivs_pipeline),
                               ("mask", lambda: avs_pipeline("mask")),
                               ("density", lambda: avs_pipeline("density"))):
            def op():
                with Stopwatch() as sw:
                    state, trained = pipeline()
                    sw.split()
                    rep = vs.evaluate.evaluate(scene, trace, state, trained)
                p.add(sw, *sw.laps)
                mae, f1 = rep.counting.mae, rep.localization.f1
                p.mae.append(mae)
                p.f1.append(f1)
                p.cover.append(rep.cover_rate)
                p.lines.append(f"{name} {','.join(state.selected)} {mae!r} "
                               f"{f1!r} {rep.cover_rate!r}")
                return check_selection(state, K, scene) + check_quality(
                    mae, f1, rep.cover_rate,
                    covered_fraction(inp.positions, state.combined_mask,
                                     scene.grid))
            ledger.run(f"ensemble {name}", op)
        return p


class IvsLarge:
    """Independent selection on a large scene. Each result is kept until
    the next call returns, as in a loop `state, dataset = run_ivs(...)`.
    With that pattern glibc's allocator makes every second call slow, so a
    pass holds two calls, one of each phase (see README)."""

    K, F, CALLS = 10, 5, 2
    has_select, has_eval = True, False

    @staticmethod
    def setup(vs, seed, workdir):
        return _scene_and_trace(vs, 200, 40, 1000 + seed, 10, (200, 400),
                                2000 + seed)

    def run_pass(self, vs, inp, seed, ledger) -> Pass:
        scene = inp.scene
        config = vs.selection.SelectionConfig(
            k_max=self.K, n_frames=self.F, strategy="geometric", seed=seed)
        p = Pass()
        for call in range(self.CALLS):
            def op():
                with Stopwatch() as sw:
                    state, dataset = vs.selection.run_ivs(scene, inp.trace,
                                                          config)
                inp.held = (state, dataset)
                p.add(sw, select_s=sw.laps[0])
                cover = covered_fraction(inp.positions, state.combined_mask,
                                         scene.grid)
                p.cover.append(cover)
                p.lines.append(f"ivs {','.join(state.selected)} {cover!r}")
                problems = check_selection(state, self.K, scene)
                if not all(sb is None or math.isfinite(sb.total)
                           for _, sb in state.history):
                    problems.append("non-finite greedy score")
                return problems
            ledger.run(f"ivs_large call {call}", op)
        return p


class CliEvalDense:
    """`viewsel eval --use-trained` on a dense 60-frame trace, in-process."""

    K = 6
    has_select, has_eval = False, True

    @staticmethod
    def setup(vs, seed, workdir):
        scene_dir = workdir / "scene"
        sel_path = workdir / "sel.json"
        commands = (
            ["scene-gen", "--cameras", "24", "--grid", "120x120",
             "--seed", str(3000 + seed), "--frames", "60",
             "--count", "300,500", "--clustering", "0.85",
             "--out-dir", str(scene_dir)],
            ["select", "--scene", str(scene_dir / "scene.json"),
             "--trace", str(scene_dir / "trace.csv"),
             "--strategy", "geometric", "--k", str(CliEvalDense.K),
             "--frames", "5", "--epochs", "4", "--predictor", "noisy",
             "--seed", str(seed), "--pred-seed", str(seed),
             "--out", str(sel_path)])
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = vs.cli.main(argv)
            if code != 0:
                raise RuntimeError(f"viewsel {argv[0]} exited {code}")
        files = {"scene": scene_dir / "scene.json",
                 "trace": scene_dir / "trace.csv", "selection": sel_path,
                 "report": workdir / "report.json"}
        h = hashlib.sha256()
        for key in ("scene", "trace", "selection"):
            h.update(files[key].read_bytes())
        return Inputs(None, [], np.zeros((0, 2)), files), h.hexdigest()

    @staticmethod
    def prepare_checks(vs, inp):
        """Scene and positions for the checks, read without the library's
        trace reader."""
        inp.scene = vs.geometry.Scene.from_config(
            json.loads(inp.files["scene"].read_text()))
        with open(inp.files["trace"], newline="") as f:
            rows = [(float(r["x_m"]), float(r["y_m"]), int(r["frame_id"]))
                    for r in csv.DictReader(f)]
        inp.positions = np.array([r[:2] for r in rows])
        selected = json.loads(inp.files["selection"].read_text())["selected"]
        inp.expected = {"selected": selected,
                        "n_frames": len({r[2] for r in rows}),
                        "cover": covered_fraction(
                            inp.positions,
                            footprint_union(inp.scene, selected),
                            inp.scene.grid)}

    def run_pass(self, vs, inp, seed, ledger) -> Pass:
        f, expected = inp.files, inp.expected
        argv = ["eval", "--scene", str(f["scene"]), "--trace", str(f["trace"]),
                "--selection", str(f["selection"]), "--use-trained",
                "--out", str(f["report"])]
        p = Pass()

        def op():
            f["report"].unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()), \
                    Stopwatch() as sw:
                code = vs.cli.main(argv)
            p.add(sw, eval_s=sw.laps[0])
            if code != 0:
                return [f"viewsel eval exited {code}"]
            raw = f["report"].read_bytes()
            rep = json.loads(raw)
            mae = rep["counting"]["mae"]
            f1 = rep["localization"]["f1"]
            cover = rep["cover_rate"]
            p.mae.append(mae)
            p.f1.append(f1)
            p.cover.append(cover)
            p.lines.append(f"eval {','.join(rep['selected'])} {mae!r} {f1!r} "
                           f"{cover!r} {hashlib.sha256(raw).hexdigest()}")
            problems = check_quality(mae, f1, cover, expected["cover"])
            if rep["selected"] != expected["selected"]:
                problems.append("report names other views than the artifact")
            if len(set(rep["selected"])) != self.K:
                problems.append(f"{len(set(rep['selected']))} unique views")
            if rep["counting"]["n_frames"] != expected["n_frames"]:
                problems.append("report does not cover every frame")
            return problems
        ledger.run("cli eval", op)
        return p


WORKLOADS = {"ensemble": Ensemble(), "ivs_large": IvsLarge(),
             "cli_eval_dense": CliEvalDense()}


# ---------------------------------------------------------------------------
# the run


@contextlib.contextmanager
def traced(tracer, vs, phase):
    """Install the tracer for one phase (no-op without a tracer)."""
    if tracer is None:
        yield
        return
    tracer.phase = phase
    tracer.install(vs.package.__name__)
    try:
        yield
    finally:
        tracer.uninstall()


def run(vs, name: str, seed: int, seconds: float, trace: bool, workdir: Path):
    workload = WORKLOADS[name]
    tracer = Tracer() if trace else None
    ledger = Ledger()
    setups: list[Stopwatch] = []
    setup_digests: list[str] = []

    def set_up(i):
        d = workdir / f"setup{i}"
        d.mkdir()
        with traced(tracer, vs, f"setup{i}"), Stopwatch() as sw:
            inp, digest = workload.setup(vs, seed, d)
        setups.append(sw)
        setup_digests.append(digest)
        ledger.run(f"set-up {i}", lambda: [] if digest == setup_digests[0]
                   else ["inputs differ from the first set-up"])
        return inp

    # The passes run right after the first set-up, as in a script that sets
    # up once; the repeated set-ups only serve the set-up timing.
    inputs = set_up(0)
    if hasattr(workload, "prepare_checks"):
        workload.prepare_checks(vs, inputs)

    # untraced and traced passes alternate in a traced run
    passes: list[tuple[bool, Pass, resource.struct_rusage,
                       resource.struct_rusage]] = []
    start = perf_counter()
    while True:
        is_traced = trace and len(passes) % 2 == 1
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        with traced(tracer if is_traced else None, vs, f"pass{len(passes)}"):
            p = workload.run_pass(vs, inputs, seed, ledger)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        reference_digest = passes[0][1].digest if passes else p.digest
        ledger.run(f"pass {len(passes)} digest",
                   lambda: [] if p.digest == reference_digest
                   else ["digest differs from the first pass"])
        passes.append((is_traced, p, r0, r1))
        typical = statistics.median(q.raw_s for _, q, _, _ in passes)
        if (len(passes) >= (2 if trace else 1)
                and perf_counter() - start + 0.5 * typical >= seconds):
            break

    for i in range(1, SETUP_REPEATS):
        set_up(i)

    plain = [(p, r0, r1) for t, p, r0, r1 in passes if not t]
    first = passes[0][1]

    def median_of(attr):
        return statistics.median(getattr(p, attr) for p, _, _ in plain)

    inputs_s = statistics.median(sw.laps[0] * sw.factor for sw in setups)
    metrics = {
        "setup_s": inputs_s,  # the caller adds the import
        "pass_s": median_of("seconds"),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cover_rate": statistics.fmean(first.cover) if first.cover else 0.0,
    }
    detail = {"inputs_s": (inputs_s, "s"),
              "inputs_raw_s": (statistics.median(sw.laps[0] for sw in setups),
                               "s"),
              "pass_raw_s": (median_of("raw_s"), "s")}
    if workload.has_select:
        detail["select_s"] = (median_of("select_s"), "s")
    if workload.has_eval:
        detail["eval_s"] = (median_of("eval_s"), "s")
        if first.mae:
            detail["count_mae"] = (statistics.fmean(first.mae), "people")
            detail["loc_f1"] = (statistics.fmean(first.f1), "1")
    detail["error_rate"] = (ledger.failed / ledger.attempted, "1")
    detail["passes"] = (len(passes), "count")

    if trace:
        factors = {f"setup{i}": sw.factor for i, sw in enumerate(setups)}
        factors.update({f"pass{i}": p.seconds / p.raw_s
                        for i, (_, p, _, _) in enumerate(passes) if p.raw_s})
        metrics.update(layer_metrics(tracer, factors, passes, plain))
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    return ledger, metrics, detail, first.digest


def layer_metrics(tracer, factors, passes, plain) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes; the set-up layers
    add the median over the set-ups, since their work sits in both. Span
    seconds are scaled to the reference speed by their phase's factor."""
    stats = phase_stats(tracer)
    for phase, st in stats.items():
        for n in st:
            if n.endswith("_s"):
                st[n] *= factors.get(phase, 1.0)
    setups = [stats.get(f"setup{i}", {}) for i in range(SETUP_REPEATS)]
    traced = [(stats.get(f"pass{i}", {}), p)
              for i, (t, p, _, _) in enumerate(passes) if t]
    per_pass = [st for st, _ in traced]

    def med(phases, name):
        return statistics.median(s.get(name, 0) for s in phases)

    out = {n: med(per_pass, n) for n in set().union(*per_pass)}
    for n in set().union(*setups):
        if n.startswith(SETUP_LAYERS):
            out[n] = med(setups, n) + med(per_pass, n)
    out["process.minflt"] = statistics.median(
        r1.ru_minflt - r0.ru_minflt for _, r0, r1 in plain)
    out["process.sys_s"] = statistics.median(
        r1.ru_stime - r0.ru_stime for _, r0, r1 in plain)
    pass_s = statistics.median(p.seconds for p, _, _ in plain)
    out["trace.overhead"] = (statistics.median(p.seconds for _, p in traced)
                             / pass_s if pass_s else 0.0)
    out["trace.top_level_share"] = statistics.median(
        st["top_level_s"] / p.seconds if p.seconds else 0.0
        for st, p in traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    vs, import_raw_s, import_s = load_viewsel()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        ledger, values, detail, digest = run(
            vs, args.workload, args.seed, args.seconds, bool(args.trace),
            workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values["setup_s"] += import_s
    detail["import_s"] = (import_s, "s")
    detail["import_raw_s"] = (import_raw_s, "s")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # a layer function the workload never calls reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0) if args.trace
                           else values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "digest": digest,
                      "detail": {k: {"value": v, "unit": u}
                                 for k, (v, u) in detail.items()}}))
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
