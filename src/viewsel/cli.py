"""Command-line harness: scene generation, selection runs, evaluation,
ablation sweeps, and artifact validation.

Every artifact embeds the hash of the producing configuration so downstream
commands can refuse mismatched inputs, and sweeps can resume by skipping
rows whose hash is already in the output index.

Exit codes: 0 success, 2 validation/config error, 3 AVS non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from .crowd import (CrowdFrame, generate_crowd_trace, trace_from_csv,
                    trace_to_csv)
from .evaluate import evaluate
from .geometry import GroundGrid, Scene
from .metrics import require_match_threshold
from .predictor import PredictorConfig, oracle_predict
from .scoring import ALL_TERMS
from .selection import (PSEUDO_STAGES, STRATEGIES, SelectionConfig,
                        SelectionState, random_select, run_avs, run_ivs,
                        train_after_selection)
from .serialize import read_json, spec_hash, write_json, write_pgm
from .synth import generate_scene

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_CONVERGED = 3
EXIT_IO = 4

SWEEP_AXES = ("K", "F", "ScoreTerms", "PseudoStages", "Strategy")


def _default_out_dir() -> str:
    return os.environ.get("VIEWSEL_OUT_DIR", ".")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except Exception:
        raise ValueError(f"bad grid spec {text!r}, expected HxW")


def _parse_pair(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(",")
        return int(lo), int(hi)
    except Exception:
        raise ValueError(f"bad range {text!r}, expected lo,hi")


def _predictor_from_args(args) -> PredictorConfig:
    if args.predictor == "oracle":
        return PredictorConfig(kernel_sigma_cells=args.kernel_sigma,
                               seed=args.pred_seed)
    return PredictorConfig(miss_rate=args.miss_rate,
                           position_jitter_m=args.jitter_m,
                           count_noise_rel=args.count_noise,
                           kernel_sigma_cells=args.kernel_sigma,
                           seed=args.pred_seed, q_scale=args.q_scale,
                           distance_falloff_m=args.falloff_m,
                           crowding_half=args.crowding_half)


def _add_predictor_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--predictor", choices=("oracle", "noisy"),
                   default="oracle")
    p.add_argument("--miss-rate", type=float, default=0.3)
    p.add_argument("--jitter-m", type=float, default=1.0)
    p.add_argument("--count-noise", type=float, default=0.1)
    p.add_argument("--kernel-sigma", type=float, default=1.0)
    p.add_argument("--q-scale", type=float, default=200.0)
    p.add_argument("--falloff-m", type=float, default=6.0)
    p.add_argument("--crowding-half", type=float, default=0.5)
    p.add_argument("--pred-seed", type=int, default=0)


def _add_selection_args(p: argparse.ArgumentParser) -> None:
    """The SelectionConfig flags that select and sweep share."""
    p.add_argument("--strategy", choices=STRATEGIES, default="geometric")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--tau", type=float, default=20.0)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--terms", default=",".join(ALL_TERMS))
    p.add_argument("--sigma", default="mean",
                   help='binarization threshold ("mean" or a float)')
    p.add_argument("--pseudo-stages", choices=PSEUDO_STAGES, default="both")


def _load_scene(path: str) -> Scene:
    return Scene.from_config(read_json(path))


def _scene_hash(scene: Scene) -> str:
    return spec_hash(scene.to_config())


def _load_trace(path: str, scene: Scene) -> list[CrowdFrame]:
    """The trace at path; a person outside the scene's grid extent is a
    validation error naming the first such person, not a silent clamp."""
    trace = trace_from_csv(path)
    ox, oy = scene.grid.origin
    ex, ey = scene.grid.extent_m
    for frame in trace:
        x, y = frame.positions.T
        off = ~((ox <= x) & (x <= ox + ex) & (oy <= y) & (y <= oy + ey))
        if off.any():
            x, y = frame.positions[off.argmax()].tolist()
            raise ValueError(f"frame {frame.frame_id}: person at ({x}, {y}) "
                             f"outside grid extent")
    return trace


def _read_selection(path: str) -> dict:
    """The selection artifact at path, which must hold a JSON object whose
    `spec`, if any, is an object too."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"selection artifact must be a JSON object, not "
                         f"{type(data).__name__}")
    spec = data.get("spec", {})
    if not isinstance(spec, dict):
        raise ValueError(f"selection artifact: 'spec' must be a JSON object, "
                         f"not {type(spec).__name__}")
    return data


def _selected_ids(data: dict, scene: Scene) -> list[str]:
    """A selection artifact's camera ids: a list of strings, each naming one
    of the scene's cameras."""
    selected = data["selected"]
    if not (isinstance(selected, list)
            and all(isinstance(s, str) for s in selected)):
        raise ValueError("selection artifact: 'selected' must be a list of "
                         "camera id strings")
    missing = [s for s in selected if s not in scene.camera_ids]
    if missing:
        raise ValueError(f"selection names unknown cameras: {missing}")
    return selected


# ---------------------------------------------------------------------------
# scene-gen


def cmd_scene_gen(args) -> int:
    h, w = _parse_grid(args.grid)
    grid = GroundGrid(height_cells=h, width_cells=w,
                      cell_size_m=args.cell_size)
    scene = generate_scene(args.cameras, grid, seed=args.seed,
                           twin_fraction=args.twin_fraction)
    lo, hi = _parse_pair(args.count)
    trace = generate_crowd_trace(grid, n_frames=args.frames,
                                 count_range=(lo, hi),
                                 clustering=args.clustering,
                                 seed=args.seed + 1)
    os.makedirs(args.out_dir, exist_ok=True)
    cfg = scene.to_config()
    cfg["spec_hash"] = spec_hash(
        {"cameras": args.cameras, "grid": args.grid,
         "cell_size": args.cell_size, "seed": args.seed,
         "twin_fraction": args.twin_fraction})
    write_json(os.path.join(args.out_dir, "scene.json"), cfg)
    trace_to_csv(trace, os.path.join(args.out_dir, "trace.csv"))
    union = scene.visibility_of(scene.camera_ids)
    counts = [len(f.positions) for f in trace]
    print(f"scene: {len(scene.cameras)} cameras on {h}x{w} grid")
    print(f"union coverage: {union.mean():.3f} of cells")
    print(f"trace: {len(trace)} frames, counts "
          f"{min(counts)}..{max(counts)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# select


def _selection_config_from_args(args) -> SelectionConfig:
    terms = tuple(t for t in args.terms.split(",") if t)
    for t in terms:
        if t not in ALL_TERMS:
            raise ValueError(f"unknown score term {t!r}")
    sigma = args.sigma
    if sigma != "mean":
        sigma = float(sigma)
    return SelectionConfig(k_max=args.k, n_frames=args.frames,
                           strategy=args.strategy, tau=args.tau,
                           sigma_mode=sigma, seed=args.seed,
                           epochs=args.epochs, terms=terms,
                           pseudo_stages=args.pseudo_stages)


def _run_selection(scene: Scene, trace, config: SelectionConfig,
                   predictor: PredictorConfig
                   ) -> tuple[SelectionState, PredictorConfig]:
    """Dispatch a strategy; returns the final state and trained predictor."""
    if config.strategy == "random":
        state = random_select(scene, config.k_max, seed=config.seed)
        frames = trace[:config.n_frames]
        predictor = train_after_selection(scene, frames, state, config,
                                          predictor)
        return state, predictor
    if config.strategy == "geometric":
        state, dataset = run_ivs(scene, trace, config, predictor)
        frames = [f for f in trace if f.frame_id in dataset.frame_ids]
        predictor = train_after_selection(scene, frames, state, config,
                                          predictor)
        return state, predictor
    state, _, predictor = run_avs(scene, trace, config, predictor)
    return state, predictor


def cmd_select(args) -> int:
    scene = _load_scene(args.scene)
    trace = _load_trace(args.trace, scene)
    config = _selection_config_from_args(args)
    predictor = _predictor_from_args(args)
    if config.strategy in ("mask", "density") and args.predictor == "oracle":
        raise ValueError("active strategies need --predictor noisy")
    state, trained = _run_selection(scene, trace, config, predictor)
    run_spec = {"selection": config.to_dict(),
                "predictor": predictor.to_dict(),
                "scene_hash": _scene_hash(scene)}
    out = state.to_dict()
    out["spec"] = run_spec
    out["spec_hash"] = spec_hash(run_spec)
    out["predictor_trained"] = trained.to_dict()
    write_json(args.out, out)
    print(f"selected: {' '.join(state.selected)}")
    if state.non_converged:
        print("warning: active loop did not reach the view budget",
              file=sys.stderr)
        return EXIT_NON_CONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def _state_from_artifact(scene: Scene, data: dict) -> SelectionState:
    selected = _selected_ids(data, scene)
    return SelectionState(selected=tuple(selected),
                          combined_mask=scene.visibility_of(selected),
                          non_converged=bool(data.get("non_converged")))


def cmd_eval(args) -> int:
    scene = _load_scene(args.scene)
    trace = _load_trace(args.trace, scene)
    data = _read_selection(args.selection)
    embedded = data.get("spec", {}).get("scene_hash")
    if embedded is not None and embedded != _scene_hash(scene) \
            and not args.force:
        raise ValueError("selection artifact was produced for a different "
                         "scene (hash mismatch); pass --force to override")
    state = _state_from_artifact(scene, data)
    if args.use_trained and "predictor_trained" in data:
        predictor = PredictorConfig.from_dict(data["predictor_trained"])
    else:
        predictor = _predictor_from_args(args)
    report = evaluate(scene, trace, state, predictor,
                      threshold_m=args.threshold_m)
    out = report.to_dict()
    out["selected"] = list(state.selected)
    out["spec_hash"] = data.get("spec_hash")
    write_json(args.out, out)
    c = report.counting
    print(f"MAE {c.mae:.3f}  NAE {c.nae:.3f}  CoverRate "
          f"{report.cover_rate:.3f}  F1 {report.localization.f1:.3f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def cmd_validate(args) -> int:
    scene = _load_scene(args.scene)
    print(f"scene ok: {len(scene.cameras)} cameras, "
          f"grid {scene.grid.height_cells}x{scene.grid.width_cells}")
    if args.trace:
        trace = _load_trace(args.trace, scene)
        print(f"trace ok: {len(trace)} frames")
    if args.selection:
        selected = _selected_ids(_read_selection(args.selection), scene)
        print(f"selection ok: {len(selected)} views")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _axis_configs(base: SelectionConfig, axis: str, values: list[str]):
    """Yield (value-label, SelectionConfig) pairs for one sweep axis."""
    for v in values:
        if axis == "K":
            yield v, replace(base, k_max=int(v))
        elif axis == "F":
            yield v, replace(base, n_frames=int(v))
        elif axis == "ScoreTerms":
            terms = tuple(t for t in v.split("+") if t)
            yield v, replace(base, terms=terms)
        elif axis == "PseudoStages":
            yield v, replace(base, pseudo_stages=v)
        elif axis == "Strategy":
            yield v, replace(base, strategy=v)
        else:
            raise ValueError(f"unknown sweep axis {axis!r}")


SWEEP_FIELDS = ["axis", "value", "repeat", "spec_hash", "status", "mae",
                "mse", "nae", "cover_rate", "moda", "modp", "f1",
                "selected", "non_converged"]


def _read_index(path: str) -> set:
    done = set()
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line:
                    done.add(line)
    return done


def cmd_sweep(args) -> int:
    scene = _load_scene(args.scene)
    trace = _load_trace(args.trace, scene)
    base = _selection_config_from_args(args)
    base_pred = _predictor_from_args(args)
    # a bad threshold would fail every cell after its selection has run
    require_match_threshold(args.threshold_m)
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValueError("no sweep values given")
    os.makedirs(args.out_dir, exist_ok=True)
    index_path = os.path.join(args.out_dir, "index.txt")
    done = _read_index(index_path)
    rows = []
    for label, config in _axis_configs(base, args.axis, values):
        for rep in range(args.repeats):
            cell_cfg = replace(config, seed=config.seed + rep)
            cell_pred = replace(base_pred, seed=base_pred.seed + rep)
            cell_spec = {"axis": args.axis, "value": label, "repeat": rep,
                         "selection": cell_cfg.to_dict(),
                         "predictor": cell_pred.to_dict(),
                         "scene_hash": _scene_hash(scene)}
            h = spec_hash(cell_spec)
            row = {"axis": args.axis, "value": label, "repeat": rep,
                   "spec_hash": h}
            if h in done:
                continue
            try:
                state, trained = _run_selection(scene, trace, cell_cfg,
                                                cell_pred)
                report = evaluate(scene, trace, state, trained,
                                  threshold_m=args.threshold_m)
                row.update(status="ok",
                           mae=repr(report.counting.mae),
                           mse=repr(report.counting.mse),
                           nae=repr(report.counting.nae),
                           cover_rate=repr(report.cover_rate),
                           moda=repr(report.localization.moda),
                           modp=repr(report.localization.modp),
                           f1=repr(report.localization.f1),
                           selected="+".join(state.selected),
                           non_converged=int(state.non_converged))
                stem = f"{args.axis}_{label}_{rep}".replace("+", "-")
                write_pgm(os.path.join(args.out_dir, f"cov_{stem}.pgm"),
                          state.combined_mask.astype(float))
                mean_pred = np.zeros(scene.grid.shape)
                for frame in trace:
                    mean_pred += oracle_predict(
                        frame, state.combined_mask, scene,
                        trained.kernel_sigma_cells).values
                write_pgm(os.path.join(args.out_dir, f"den_{stem}.pgm"),
                          mean_pred / max(len(trace), 1))
            except (ValueError, ArithmeticError) as exc:
                row.update(status=f"error: {exc}", mae="", mse="", nae="",
                           cover_rate="", moda="", modp="", f1="",
                           selected="", non_converged="")
            rows.append(row)
            with open(index_path, "a") as f:
                f.write(h + "\n")
    csv_path = os.path.join(args.out_dir, "sweep.csv")
    new_file = not os.path.exists(csv_path)
    with open(csv_path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_FIELDS)
        if new_file:
            writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"sweep: wrote {len(rows)} rows to {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="viewsel",
        description="camera view selection for ground-plane crowd analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene-gen", help="generate a synthetic scene + trace")
    p.add_argument("--cameras", type=int, required=True)
    p.add_argument("--grid", required=True, help="HxW cells")
    p.add_argument("--cell-size", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--twin-fraction", type=float, default=0.0)
    p.add_argument("--frames", type=int, default=20)
    p.add_argument("--count", default="50,100", help="lo,hi people per frame")
    p.add_argument("--clustering", type=float, default=0.7)
    p.add_argument("--out-dir", default=_default_out_dir())
    p.set_defaults(func=cmd_scene_gen)

    p = sub.add_parser("select", help="run a selection strategy")
    p.add_argument("--scene", required=True)
    p.add_argument("--trace", required=True)
    _add_selection_args(p)
    p.add_argument("--out", required=True)
    _add_predictor_args(p)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("eval", help="evaluate a selection artifact")
    p.add_argument("--scene", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--selection", required=True)
    p.add_argument("--threshold-m", type=float, default=0.5)
    p.add_argument("--use-trained", action="store_true",
                   help="reuse the trained predictor from the artifact")
    p.add_argument("--force", action="store_true",
                   help="ignore scene hash mismatch")
    p.add_argument("--out", required=True)
    _add_predictor_args(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run an ablation sweep")
    p.add_argument("--scene", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--values", required=True,
                   help='comma list; ScoreTerms values like "sc+ad"')
    p.add_argument("--repeats", type=int, default=1)
    _add_selection_args(p)
    p.add_argument("--threshold-m", type=float, default=0.5)
    p.add_argument("--out-dir", default=_default_out_dir())
    _add_predictor_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("validate", help="check artifacts for consistency")
    p.add_argument("--scene", required=True)
    p.add_argument("--trace")
    p.add_argument("--selection")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches our validation code
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
