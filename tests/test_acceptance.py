"""End-to-end acceptance gate.

Each test is one numbered criterion and emits a single PASS/FAIL line on
stderr (bypassing capture) before asserting, so a full run prints a
nine-line scoreboard.
"""

import itertools
import sys
import time

import numpy as np
import pytest

from viewsel import (DensityMap, GroundGrid, PredictorConfig,
                     SelectionConfig, cover_rate,
                     generate_crowd_trace, make_pseudo_pair,
                     match_points, localization_metrics,
                     random_select, run_ivs, run_selection, score_round)
from viewsel.cli import main as cli_main
from viewsel.selection import add_view
from viewsel.evaluate import evaluate
from viewsel.synth import generate_scene

import conftest
from conftest import random_small_scene
from reference import (brute_force_best, ref_match_points,
                       ref_score_density, ref_score_geometric, ref_score_mask)

LAM, EPS = 0.1, 1e-10


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__, flush=True)
    assert ok, line


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ---------------------------------------------------------------------------
# 1. score-formula oracle equivalence


def test_criterion_1_score_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        scene = random_small_scene(rng, n_cameras=int(rng.integers(2, 11)))
        k = int(rng.integers(1, min(len(scene.cameras), 4) + 1))
        idx = rng.choice(len(scene.cameras), size=k, replace=False)
        cams = [scene.cameras[i] for i in idx]
        ids = [c.id for c in cams]
        pred_v = rng.uniform(0.0, 1.0, size=scene.grid.shape)
        pred_v[pred_v < 0.5] = 0.0
        pred = DensityMap(values=pred_v)

        got = score_round(ids[:-1], ids[-1:], scene, "geometric", None,
                          "mean")[0].total
        want = ref_score_geometric(cams, scene, LAM, EPS)[3]
        worst = max(worst, _rel_err(got, want))
        got = score_round(ids[:-1], ids[-1:], scene, "mask", pred,
                          "mean")[0].total
        want = ref_score_mask(cams, scene, pred_v, "mean", LAM, EPS)[3]
        worst = max(worst, _rel_err(got, want))
        got = score_round(ids[:-1], ids[-1:], scene, "density", pred,
                          "mean")[0].total
        want = ref_score_density(cams, scene, pred_v, "mean", LAM, EPS)[3]
        worst = max(worst, _rel_err(got, want))
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt < 60.0
    _report(1, ok, f"score oracle equivalence: worst rel err {worst:.2e} "
                   f"over 100 scenes in {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. reduction identities


def test_criterion_2_reduction_identities():
    rng = np.random.default_rng(202)
    worst_mg = worst_dm = 0.0
    for _ in range(100):
        scene = random_small_scene(rng, n_cameras=int(rng.integers(2, 7)))
        k = int(rng.integers(1, len(scene.cameras) + 1))
        idx = rng.choice(len(scene.cameras), size=k, replace=False)
        ids = [scene.camera_ids[i] for i in idx]
        # mask with B := FOV union reduces to the geometric score
        union = scene.visibility_of(ids)
        pred_union = DensityMap(values=union.astype(float))
        geo = score_round(ids[:-1], ids[-1:], scene, "geometric", None,
                          "mean")[0].total
        msk = score_round(ids[:-1], ids[-1:], scene, "mask", pred_union,
                          0.5)[0].total
        worst_mg = max(worst_mg, _rel_err(geo, msk))
        # density with M == 1 on B reduces to the mask score
        region = rng.random(scene.grid.shape) < 0.4
        pred_unit = DensityMap(values=region.astype(float))
        m2 = score_round(ids[:-1], ids[-1:], scene, "mask", pred_unit,
                         0.5)[0].total
        d2 = score_round(ids[:-1], ids[-1:], scene, "density", pred_unit,
                         0.5)[0].total
        worst_dm = max(worst_dm, _rel_err(m2, d2))
    ok = worst_mg <= 1e-12 and worst_dm <= 1e-12
    _report(2, ok, f"reduction identities: mask->geometric {worst_mg:.2e}, "
                   f"density->mask {worst_dm:.2e} over 100 instances each")


# ---------------------------------------------------------------------------
# 3. greedy vs exhaustive


def test_criterion_3_greedy_vs_brute_force():
    t0 = time.time()
    good = 0
    for s in range(50):
        grid = GroundGrid(height_cells=48, width_cells=48, cell_size_m=0.5)
        scene = generate_scene(10, grid, seed=300 + s,
                               range_frac=(0.7, 1.0))
        trace = generate_crowd_trace(grid, 6, (30, 60), 0.5, seed=700 + s)
        cfg = SelectionConfig(k_max=3, n_frames=3, strategy="geometric")
        state, _ = run_ivs(scene, trace, cfg)
        greedy_cr = cover_rate(trace, state.combined_mask, scene.grid)
        _, best_cr = brute_force_best(scene, trace, k=3)
        if greedy_cr >= 0.90 * best_cr:
            good += 1
    dt = time.time() - t0
    ok = good >= 45 and dt < 300.0
    _report(3, ok, f"greedy within 0.90x of exhaustive CoverRate on "
                   f"{good}/50 scenes (floor 45, slack {good - 45}) "
                   f"in {dt:.1f}s")


# ---------------------------------------------------------------------------
# 4. strategy ordering on the frozen ensemble


def _ensemble_scene(s: int):
    grid = GroundGrid(height_cells=80, width_cells=80, cell_size_m=0.5)
    scene = generate_scene(12, grid, seed=1000 + s, range_frac=(0.5, 0.8))
    trace = generate_crowd_trace(grid, n_frames=10, count_range=(80, 140),
                                 clustering=0.85, seed=2000 + s)
    return scene, trace


def _ensemble_predictor(s: int) -> PredictorConfig:
    return PredictorConfig(miss_rate=0.9, position_jitter_m=1.5,
                           count_noise_rel=0.2, seed=s, q_scale=400.0,
                           distance_falloff_m=6.0, crowding_half=0.5)


def test_criterion_4_strategy_ordering():
    t0 = time.time()
    K, F, EPOCHS, TAU = 5, 5, 24, 30.0
    mae = {k: [] for k in ("random", "ivs", "mask", "density")}
    cov = {k: [] for k in ("random", "ivs", "mask", "density")}
    views = {k: [] for k in ("random", "ivs", "mask", "density")}
    # each pipeline's strategy and pseudo-label stages
    pipelines = {"random": ("random", "none"),
                 "ivs": ("geometric", "modeltrain"),
                 "mask": ("mask", "both"), "density": ("density", "both")}
    for s in range(20):
        scene, trace = _ensemble_scene(s)
        for key, (strategy, stages) in pipelines.items():
            cfg = SelectionConfig(k_max=K, n_frames=F, strategy=strategy,
                                  tau=TAU, epochs=EPOCHS,
                                  pseudo_stages=stages, seed=s)
            state, trained = run_selection(scene, trace, cfg,
                                           _ensemble_predictor(s))
            rep = evaluate(scene, trace, state, trained)
            mae[key].append(rep.counting.mae)
            cov[key].append(rep.cover_rate)
            views[key].append(set(state.selected))
    m = {k: float(np.mean(v)) for k, v in mae.items()}
    c = {k: float(np.mean(v)) for k, v in cov.items()}
    ok = (c["random"] <= c["ivs"]
          and m["random"] >= m["ivs"] >= m["mask"] >= m["density"]
          and m["density"] <= 0.85 * m["random"])
    dt = time.time() - t0
    # how far each gate is from failing: the gap of each ordering and the
    # scenes on which the later strategy beats, ties or loses to the
    # earlier one, and those on which both picked the same view set
    name = {"random": "random", "ivs": "geometric", "mask": "mask",
            "density": "density"}
    steps = [("random", "ivs"), ("ivs", "mask"), ("mask", "density")]
    gaps = ", ".join(f"{name[a]}-{name[b]} {m[a] - m[b]:.2f}"
                     for a, b in steps)
    paired = ", ".join(
        f"{name[b]} over {name[a]} "
        f"{sum(y < x for x, y in zip(mae[a], mae[b]))}/"
        f"{sum(y == x for x, y in zip(mae[a], mae[b]))}/"
        f"{sum(y > x for x, y in zip(mae[a], mae[b]))} (same views "
        f"{sum(u == v for u, v in zip(views[a], views[b]))}/20)"
        for a, b in steps)
    cov_wins = sum(g > r for r, g in zip(cov["random"], cov["ivs"]))
    _report(4, ok,
            "mean MAE random {random:.2f} >= geometric {ivs:.2f} >= "
            "mask {mask:.2f} >= density {density:.2f}".format(**m)
            + f"; CoverRate random {c['random']:.3f} <= geometric "
              f"{c['ivs']:.3f}; density MAE <= 0.85x random "
              f"({m['density']:.2f} vs {0.85 * m['random']:.2f}); "
              f"slack: MAE gaps {gaps}, CoverRate gap "
              f"{c['ivs'] - c['random']:.3f}, 0.85x margin "
              f"{0.85 * m['random'] - m['density']:.2f}; paired "
              f"wins/ties/losses per scene: MAE {paired}, CoverRate "
              f"geometric over random "
              f"{cov_wins}/20 in {dt:.1f}s")


# ---------------------------------------------------------------------------
# 5. diversity-term ablation on twin-camera scenes


def test_criterion_5_diversity_ablation():
    wins = ties = 0
    for s in range(20):
        grid = GroundGrid(height_cells=80, width_cells=80, cell_size_m=0.5)
        scene = generate_scene(12, grid, seed=1000 + s,
                               range_frac=(0.5, 0.8), twin_fraction=0.34)
        trace = generate_crowd_trace(grid, 10, (80, 140), 0.85,
                                     seed=2000 + s)
        crs = {}
        for terms in (("sc", "ad", "vd"), ("sc", "ad")):
            cfg = SelectionConfig(k_max=5, n_frames=5, strategy="geometric",
                                  seed=s, terms=terms)
            state, _ = run_ivs(scene, trace, cfg)
            crs[terms] = cover_rate(trace, state.combined_mask, scene.grid)
        gain = crs[("sc", "ad", "vd")] - crs[("sc", "ad")]
        wins += gain > 1e-12
        ties += abs(gain) <= 1e-12
    good = wins + ties
    ok = good >= 16
    _report(5, ok, f"all-terms CoverRate >= sc*ad CoverRate on {good}/20 "
                   f"twin-camera scenes (floor 16, slack {good - 16}; "
                   f"wins/ties within 1e-12/losses {wins}/{ties}/"
                   f"{20 - good})")


# ---------------------------------------------------------------------------
# 6. monotonicity suites (1,000 cases each)


def test_criterion_6_monotonicity_suites():
    rng = np.random.default_rng(606)
    violations = 0

    # suite A: S_sc nondecreasing under view addition, as score_round
    # scores it for the last view added
    for _ in range(1000):
        scene = random_small_scene(rng, n_cameras=5)
        ids = list(scene.camera_ids)
        rng.shuffle(ids)
        prev = -1.0
        for k in range(1, 6):
            cur = score_round(ids[:k - 1], ids[k - 1:k], scene,
                              "geometric")[0].s_sc
            if cur < prev:
                violations += 1
                break
            prev = cur
    a_viol = violations

    # suite B: cover_rate nondecreasing under visibility union growth
    for _ in range(1000):
        h, w = int(rng.integers(5, 30)), int(rng.integers(5, 30))
        grid = GroundGrid(height_cells=h, width_cells=w, cell_size_m=0.5)
        a = rng.random(grid.shape) < rng.uniform(0, 1)
        b = rng.random(grid.shape) < rng.uniform(0, 1)
        ex, ey = grid.extent_m
        pts = rng.uniform([0, 0], [ex, ey], size=(20, 2))
        from viewsel import CrowdFrame
        frames = [CrowdFrame(frame_id=0, positions=pts)]
        if cover_rate(frames, a | b, grid) < cover_rate(frames, a, grid):
            violations += 1
    b_viol = violations - a_viol

    # suite C: greedy prefix stability, K=3 prefix of K=5
    def greedy_sequence(scene, k):
        first = min(scene.camera_ids,
                    key=lambda c: (-np.count_nonzero(scene.footprint(c).mask),
                                  c))
        from viewsel.selection import _initial_state
        state = _initial_state(scene, first)

        def from_scratch(group, candidates):
            scores = []
            for cid in candidates:
                scores.append(score_round(group, [cid], scene, "geometric",
                                          None, "mean")[0])
            best = max(range(len(scores)), key=lambda i: scores[i].total)
            return best, scores[best]

        while len(state.selected) < k:
            state = add_view(state, from_scratch)
        return state.selected

    for _ in range(1000):
        scene = random_small_scene(rng, n_cameras=7)
        if greedy_sequence(scene, 5)[:3] != greedy_sequence(scene, 3):
            violations += 1
    c_viol = violations - a_viol - b_viol

    ok = violations == 0
    _report(6, ok, f"monotonicity: {a_viol} S_sc, {b_viol} cover_rate, "
                   f"{c_viol} prefix-stability violations in 1000 cases "
                   f"each")


# ---------------------------------------------------------------------------
# 7. pseudo-label mask contracts


def test_criterion_7_pseudo_label_contracts():
    rng = np.random.default_rng(707)
    scenes = []
    for i in range(10):
        grid = GroundGrid(height_cells=30, width_cells=30, cell_size_m=0.5)
        scene = generate_scene(8, grid, seed=50 + i)
        trace = generate_crowd_trace(grid, 5, (15, 30), 0.7, seed=80 + i)
        state = random_select(scene, 3, seed=i)
        scenes.append((scene, trace, state))
    bad = 0
    for n in range(1000):
        scene, trace, state = scenes[n % len(scenes)]
        frame = trace[n % len(trace)]
        for stage in ("viewsel", "modeltrain"):
            pair = make_pseudo_pair(state, frame, rng, stage)
            if pair.gt_density.values[~pair.loss_mask].any():
                bad += 1
            expected = state.combined_mask & scene.visibility_of(
                list(pair.input_view_ids))
            if not (pair.loss_mask == expected).all():
                bad += 1
    ok = bad == 0
    _report(7, ok, f"pseudo-label contracts: {bad} violations over 1000 "
                   f"pair draws per stage")


# ---------------------------------------------------------------------------
# 8. metric oracles


def test_criterion_8_metric_oracles():
    gt = [(float(i), 0.0) for i in range(10)]
    pred = [(float(i), 0.0) for i in range(9)] + [(50.0, 50.0)]
    matches, fp, fn = match_points(pred, gt, threshold_m=0.5)
    rep = localization_metrics(matches, len(fp), len(fn), len(gt), 0.5)
    exact_ok = (rep.moda == pytest.approx(0.8)
                and rep.precision == pytest.approx(0.9)
                and rep.recall == pytest.approx(0.9)
                and rep.f1 == pytest.approx(0.9))
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(200):
        n, m = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        p = [tuple(x) for x in rng.uniform(0, 4, size=(n, 2))]
        g = [tuple(x) for x in rng.uniform(0, 4, size=(m, 2))]
        got, _, _ = match_points(p, g, threshold_m=1.0)
        k_ref, d_ref = ref_match_points(p, g, 1.0)
        if len(got) != k_ref or \
                abs(sum(d for _, _, d in got) - d_ref) > 1e-9:
            mismatches += 1
    ok = exact_ok and mismatches == 0
    _report(8, ok, f"9TP/1FP/1FN oracle {'exact' if exact_ok else 'WRONG'}; "
                   f"{mismatches}/200 assignment mismatches vs exhaustive")


# ---------------------------------------------------------------------------
# 9. determinism of command outputs


def test_criterion_9_cli_determinism(tmp_path):
    def produce(root):
        root.mkdir()
        sg = root / "scene"
        assert cli_main(["scene-gen", "--cameras", "8", "--grid", "50x50",
                         "--seed", "17", "--frames", "8", "--count",
                         "40,80", "--clustering", "0.8", "--out-dir",
                         str(sg)]) == 0
        sel = root / "sel.json"
        assert cli_main(["select", "--scene", str(sg / "scene.json"),
                         "--trace", str(sg / "trace.csv"), "--strategy",
                         "density", "--k", "3", "--frames", "4",
                         "--predictor", "noisy", "--tau", "20", "--epochs",
                         "15", "--q-scale", "150",
                         "--out", str(sel)]) == 0
        rep = root / "rep.json"
        assert cli_main(["eval", "--scene", str(sg / "scene.json"),
                         "--trace", str(sg / "trace.csv"), "--selection",
                         str(sel), "--use-trained",
                         "--out", str(rep)]) == 0
        sw = root / "sweep"
        assert cli_main(["sweep", "--scene", str(sg / "scene.json"),
                         "--trace", str(sg / "trace.csv"), "--axis", "K",
                         "--values", "2,3", "--frames", "3", "--out-dir",
                         str(sw)]) == 0
        return [sg / "scene.json", sg / "trace.csv", sel, rep,
                sw / "sweep.csv"]

    files_a = produce(tmp_path / "a")
    files_b = produce(tmp_path / "b")
    diffs = [fa.name for fa, fb in zip(files_a, files_b)
             if fa.read_bytes() != fb.read_bytes()]
    ok = not diffs
    _report(9, ok, "byte-identical JSON/CSV across repeated runs"
            if ok else f"differing files: {diffs}")
