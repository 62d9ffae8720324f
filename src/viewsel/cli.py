"""Command-line harness: scene generation, selection runs, evaluation,
ablation sweeps, and artifact validation.

Every artifact embeds the hash of the producing configuration so downstream
commands can refuse mismatched inputs, and sweeps can resume by skipping
cells whose hash is already in the spec_hash column of sweep.csv.

Exit codes: 0 success, 2 validation/config error, 3 AVS non-convergence,
4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import asdict, replace

from .crowd import (check_trace, generate_crowd_trace, trace_from_csv,
                    trace_to_csv)
from .evaluate import evaluate
from .geometry import GroundGrid, Scene
from .metrics import require_match_threshold
from .predictor import PredictorConfig, oracle_predict
from .scoring import ALL_TERMS
from .selection import (PSEUDO_STAGES, STRATEGIES, SelectionConfig,
                        SelectionState, check_run, mean_prediction,
                        run_selection)
from .serialize import read_json, spec_hash, write_json, write_pgm
from .synth import generate_scene

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NON_CONVERGED = 3
EXIT_IO = 4


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


def _require_scene(data: dict, scene: Scene, hint: str = "") -> None:
    """Refuse a selection artifact whose spec holds another scene's hash."""
    embedded = data.get("spec", {}).get("scene_hash")
    if embedded is not None and embedded != _scene_hash(scene):
        raise ValueError("selection artifact was produced for a different "
                         "scene (hash mismatch)" + hint)


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
    sigma = args.sigma
    if sigma != "mean":
        sigma = float(sigma)
    return SelectionConfig(k_max=args.k, n_frames=args.frames,
                           strategy=args.strategy, tau=args.tau,
                           sigma_mode=sigma, seed=args.seed,
                           epochs=args.epochs, terms=terms,
                           pseudo_stages=args.pseudo_stages)


def _require_predictor_for(config: SelectionConfig, predictor: str) -> None:
    """Refuse a run of an active strategy under the oracle predictor, in
    select and in every sweep cell alike."""
    if config.strategy in ("mask", "density") and predictor == "oracle":
        raise ValueError("active strategies need --predictor noisy")


def cmd_select(args) -> int:
    scene = _load_scene(args.scene)
    trace = trace_from_csv(args.trace)
    config = _selection_config_from_args(args)
    predictor = _predictor_from_args(args)
    _require_predictor_for(config, args.predictor)
    state, trained = run_selection(scene, trace, config, predictor)
    run_spec = {"selection": asdict(config),
                "predictor": asdict(predictor),
                "scene_hash": _scene_hash(scene)}
    out = state.to_dict()
    out["spec"] = run_spec
    out["spec_hash"] = spec_hash(run_spec)
    out["predictor_trained"] = asdict(trained)
    write_json(args.out, out)
    print(f"selected: {' '.join(state.selected)}")
    if state.non_converged:
        print("warning: active loop did not reach the view budget",
              file=sys.stderr)
        return EXIT_NON_CONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    scene = _load_scene(args.scene)
    trace = trace_from_csv(args.trace)
    data = read_json(args.selection)
    state = SelectionState.from_dict(data, scene)
    if not args.force:
        _require_scene(data, scene, "; pass --force to override")
    if args.use_trained:
        if "predictor_trained" not in data:
            raise ValueError("selection artifact has no predictor_trained "
                             "for --use-trained")
        predictor = PredictorConfig.from_dict(data["predictor_trained"])
    else:
        predictor = _predictor_from_args(args)
    report = evaluate(scene, trace, state, predictor,
                      threshold_m=args.threshold_m)
    out = asdict(report)
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
        trace = trace_from_csv(args.trace)
        check_trace(trace, scene.grid)
        print(f"trace ok: {len(trace)} frames")
    if args.selection:
        data = read_json(args.selection)
        state = SelectionState.from_dict(data, scene)
        _require_scene(data, scene)
        if "predictor_trained" in data:
            PredictorConfig.from_dict(data["predictor_trained"])
        print(f"selection ok: {len(state.selected)} views")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# each axis: the SelectionConfig field it sets and the parser of one value
SWEEP_AXES = {
    "K": ("k_max", int),
    "F": ("n_frames", int),
    "ScoreTerms": ("terms", lambda v: tuple(t for t in v.split("+") if t)),
    "PseudoStages": ("pseudo_stages", str),
    "Strategy": ("strategy", str),
}

SWEEP_FIELDS = ["axis", "value", "repeat", "spec_hash", "status", "mae",
                "mse", "nae", "cover_rate", "moda", "modp", "f1",
                "selected", "non_converged"]


def _done_cells(csv_path: str) -> set:
    """The spec_hash column of the sweep.csv at csv_path: the cells a
    rerun skips; empty for a missing or empty file."""
    if not os.path.exists(csv_path):
        return set()
    with open(csv_path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames not in (None, SWEEP_FIELDS):
            raise ValueError(f"{csv_path} is not a sweep table: its header "
                             f"is {reader.fieldnames}, not {SWEEP_FIELDS}")
        return {row["spec_hash"] for row in reader}


def cmd_sweep(args) -> int:
    scene = _load_scene(args.scene)
    trace = trace_from_csv(args.trace)
    base = _selection_config_from_args(args)
    base_pred = _predictor_from_args(args)
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, not {args.repeats}")
    values = [v for v in args.values.split(",") if v]
    if not values:
        raise ValueError("no sweep values given")
    # every cell is built, and so checked, before any cell runs
    field, parse = SWEEP_AXES[args.axis]
    scene_hash = _scene_hash(scene)
    cells = []
    seen = set()
    for label in values:
        value = parse(label)
        # a value given twice would run the same cells twice
        if value in seen:
            raise ValueError(f"sweep value {label!r} repeats an earlier "
                             f"value")
        seen.add(value)
        config = replace(base, **{field: value})
        _require_predictor_for(config, args.predictor)
        check_run(scene, trace, config)
        for rep in range(args.repeats):
            cell_cfg = replace(config, seed=config.seed + rep)
            cell_pred = replace(base_pred, seed=base_pred.seed + rep)
            key = {"axis": args.axis, "value": label, "repeat": rep}
            h = spec_hash({**key, "selection": asdict(cell_cfg),
                           "predictor": asdict(cell_pred),
                           "scene_hash": scene_hash})
            stem = f"{args.axis}_{label}_{rep}".replace("+", "-")
            cells.append((dict(key, spec_hash=h), stem, cell_cfg, cell_pred))
    # what evaluate would refuse in every cell
    require_match_threshold(args.threshold_m)
    csv_path = os.path.join(args.out_dir, "sweep.csv")
    done = _done_cells(csv_path)
    todo = [cell for cell in cells if cell[0]["spec_hash"] not in done]
    os.makedirs(args.out_dir, exist_ok=True)
    with open(csv_path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SWEEP_FIELDS)
        if f.tell() == 0:
            writer.writeheader()
        for cell, stem, cell_cfg, cell_pred in todo:
            try:
                state, trained = run_selection(scene, trace, cell_cfg,
                                               cell_pred)
                report = evaluate(scene, trace, state, trained,
                                  threshold_m=args.threshold_m)
                row = dict(cell, status="ok",
                           mae=repr(report.counting.mae),
                           mse=repr(report.counting.mse),
                           nae=repr(report.counting.nae),
                           cover_rate=repr(report.cover_rate),
                           moda=repr(report.localization.moda),
                           modp=repr(report.localization.modp),
                           f1=repr(report.localization.f1),
                           selected="+".join(state.selected),
                           non_converged=int(state.non_converged))
                write_pgm(os.path.join(args.out_dir, f"cov_{stem}.pgm"),
                          state.combined_mask.astype(float))
                mean_pred = mean_prediction(
                    [oracle_predict(frame, state.combined_mask, scene,
                                    trained.kernel_sigma_cells)
                     for frame in trace], scene.grid.shape)
                write_pgm(os.path.join(args.out_dir, f"den_{stem}.pgm"),
                          mean_pred.values)
            except (ValueError, ArithmeticError) as exc:
                row = {**dict.fromkeys(SWEEP_FIELDS, ""), **cell,
                       "status": f"error: {exc}"}
            writer.writerow(row)
            # a crash or Ctrl-C after this loses no finished cell
            f.flush()
    print(f"sweep: wrote {len(todo)} rows to {csv_path}")
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
    p.add_argument("--out-dir", default=".")
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
    p.add_argument("--out-dir", default=".")
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
