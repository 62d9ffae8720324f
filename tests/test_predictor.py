from dataclasses import asdict

import numpy as np
import pytest

from viewsel import (CalibrationState, CrowdFrame, PredictorConfig,
                     calibrate, generate_crowd_trace, noisy_predict,
                     oracle_predict, training_mae)


def _full(scene):
    return np.ones(scene.grid.shape, dtype=bool)


def _trace(scene, n=3, seed=0):
    return generate_crowd_trace(scene.grid, n, (20, 40), 0.7, seed=seed)


def test_oracle_counts_visible_persons_only(demo_scene, monkeypatch):
    frame = _trace(demo_scene)[0]
    vis = demo_scene.visibility_of(demo_scene.camera_ids[:2])
    # the seen people are picked by row, never copied into a new frame
    built, real = [], CrowdFrame.__post_init__
    monkeypatch.setattr(CrowdFrame, "__post_init__",
                        lambda self: built.append(real(self)))
    dm = oracle_predict(frame, vis, demo_scene)
    monkeypatch.undo()
    assert built == []
    covered = int(frame.seen(vis, demo_scene.grid).sum())
    # masking can clip kernel tails of boundary people, so up to tolerance
    assert dm.total <= covered + 1e-9
    assert dm.total == pytest.approx(covered, abs=0.5)


def test_full_quality_equals_oracle_bitwise(demo_scene):
    frame = _trace(demo_scene)[0]
    vis = _full(demo_scene)
    cfg = PredictorConfig(miss_rate=0.5, position_jitter_m=2.0,
                          count_noise_rel=0.3, seed=1,
                          calibration=CalibrationState(
                              labeled_view_frames=1e9, quality=1.0))
    noisy = noisy_predict(frame, vis, demo_scene, cfg)
    exact = oracle_predict(frame, vis, demo_scene)
    assert (noisy.values == exact.values).all()


def test_total_miss_zeroes_the_map(demo_scene):
    frame = _trace(demo_scene)[0]
    cfg = PredictorConfig(miss_rate=1.0, seed=0)
    dm = noisy_predict(frame, _full(demo_scene), demo_scene, cfg)
    assert dm.total == 0.0


def test_miss_rate_binomial_statistics(small_grid):
    # 1000 people, miss_rate 0.2, quality 0 -> kept count within 5 sigma
    # of Binomial(1000, 0.8)
    from viewsel import Scene, CameraPose
    import math
    cam = CameraPose(id="c", position_3d=(10.0, 10.0, 10.0), yaw=0.0,
                     pitch=-math.pi / 2, horizontal_fov_rad=2.0,
                     vertical_fov_rad=2.0, max_range_m=100.0)
    scene = Scene(grid=small_grid, cameras=[cam])
    rng = np.random.default_rng(123)
    pts = rng.uniform(1.0, 19.0, size=(1000, 2))
    frame = CrowdFrame(frame_id=0, positions=pts)
    cfg = PredictorConfig(miss_rate=0.2, count_noise_rel=0.0, seed=7)
    dm = noisy_predict(frame, _full(scene), scene, cfg)
    mean, sigma = 800.0, math.sqrt(1000 * 0.2 * 0.8)
    assert abs(dm.total - mean) <= 5 * sigma


def test_noisy_is_deterministic_per_seed_and_frame(demo_scene):
    frame = _trace(demo_scene)[1]
    vis = _full(demo_scene)
    cfg = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                          count_noise_rel=0.2, seed=5)
    a = noisy_predict(frame, vis, demo_scene, cfg)
    b = noisy_predict(frame, vis, demo_scene, cfg)
    assert (a.values == b.values).all()
    other = PredictorConfig(miss_rate=0.3, position_jitter_m=1.0,
                            count_noise_rel=0.2, seed=6)
    c = noisy_predict(frame, vis, demo_scene, other)
    assert not (a.values == c.values).all()


def test_observed_people_are_missed_less(demo_scene):
    # with camera context, a person watched closely by many views keeps a
    # lower miss probability than the same person unobserved; check via the
    # expected kept mass over many seeds
    frame = _trace(demo_scene, n=1, seed=4)[0]
    vis = _full(demo_scene)
    totals_ctx, totals_plain = [], []
    for s in range(40):
        cfg = PredictorConfig(miss_rate=0.9, seed=s)
        totals_ctx.append(noisy_predict(frame, vis, demo_scene, cfg,
                                        selected_ids=demo_scene.camera_ids
                                        ).total)
        totals_plain.append(noisy_predict(frame, vis, demo_scene, cfg).total)
    assert np.mean(totals_ctx) > np.mean(totals_plain)


def test_calibrate_learning_curve():
    cfg = PredictorConfig(miss_rate=0.5, q_scale=100.0)
    cfg = calibrate(cfg, 50.0)
    assert cfg.calibration.labeled_view_frames == 50.0
    assert cfg.calibration.quality == pytest.approx(1.0 - np.exp(-0.5))
    cfg = calibrate(cfg, 50.0)
    assert cfg.calibration.quality == pytest.approx(1.0 - np.exp(-1.0))


def test_calibrate_quality_monotone_and_bounded():
    cfg = PredictorConfig(q_scale=30.0)
    last = 0.0
    for _ in range(20):
        cfg = calibrate(cfg, 10.0)
        assert last <= cfg.calibration.quality < 1.0
        last = cfg.calibration.quality


def test_calibrate_metric_against_covered_people(demo_scene):
    frames = _trace(demo_scene, n=4, seed=8)
    vis = demo_scene.visibility_of(demo_scene.camera_ids[:3])
    cfg = PredictorConfig(miss_rate=0.0, count_noise_rel=0.0,
                          position_jitter_m=0.0)
    preds = [noisy_predict(f, vis, demo_scene, cfg,
                           selected_ids=demo_scene.camera_ids[:3])
             for f in frames]
    # the frames now hold their cells; fresh copies compute them again
    for f, pred in zip(frames, preds):
        for frame in (f, CrowdFrame(f.frame_id, f.positions)):
            again = noisy_predict(frame, vis, demo_scene, cfg,
                                  selected_ids=demo_scene.camera_ids[:3])
            assert np.array_equal(again.values, pred.values)
    covered = [int(f.seen(vis, demo_scene.grid).sum()) for f in frames]
    metric = training_mae(preds, covered)
    # noise-free predictor counts the covered people, up to kernel-tail
    # clipping at the visibility boundary
    assert metric == pytest.approx(0.0, abs=2.0)
    assert metric == float(np.mean([abs(p.total - n)
                                    for p, n in zip(preds, covered)]))
    with pytest.raises(ValueError):
        training_mae([], [])
    with pytest.raises(ValueError):
        training_mae(preds, covered[1:])


def test_calibrate_rejects_negative_credit():
    with pytest.raises(ValueError):
        calibrate(PredictorConfig(), -1.0)


def test_calibrate_zero_epochs_is_identity_and_negative_raises():
    with pytest.raises(ValueError):
        calibrate(PredictorConfig(), 1.0, epochs=-1)
    cfg = PredictorConfig()
    assert calibrate(cfg, 1.0, epochs=0) is cfg


def test_frame_constants_are_read_only_and_warm_equals_cold(demo_scene):
    frame = _trace(demo_scene)[0]
    cfg = PredictorConfig(miss_rate=0.5, seed=1, crowding_half=0.5)
    ids = demo_scene.camera_ids
    vis = _full(demo_scene)
    cold = noisy_predict(frame, vis, demo_scene, cfg, selected_ids=ids)
    n = len(frame.positions)
    rho = frame.local_density(demo_scene.grid, cfg.kernel_sigma_cells)
    crowding = rho / (rho + cfg.crowding_half)
    assert rho.shape == (n,)
    assert ((crowding > 0) & (crowding < 1)).all()
    held = [*frame.cells(demo_scene.grid), rho,
            *(frame.observation(demo_scene, cid) for cid in ids)]
    for arr in held:
        assert arr.shape == (n,)
        with pytest.raises(ValueError):
            arr[0] = 0
    # a second call reads the same arrays, and gives the same map as a
    # fresh copy of the frame computing every constant again
    assert frame.local_density(demo_scene.grid,
                               cfg.kernel_sigma_cells) is rho
    warm = noisy_predict(frame, vis, demo_scene, cfg, selected_ids=ids)
    fresh = CrowdFrame(frame.frame_id, frame.positions)
    assert np.array_equal(warm.values, cold.values)
    assert np.array_equal(noisy_predict(fresh, vis, demo_scene, cfg,
                                        selected_ids=ids).values,
                          cold.values)
    assert fresh == frame and repr(fresh) == repr(frame)


def test_config_validation_and_round_trip():
    with pytest.raises(ValueError):
        PredictorConfig(miss_rate=1.5)
    with pytest.raises(ValueError):
        PredictorConfig(kernel_sigma_cells=0.0)
    with pytest.raises(ValueError):
        PredictorConfig(distance_falloff_m=0.0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        PredictorConfig(seed=-1)
    cfg = PredictorConfig(miss_rate=0.4, position_jitter_m=1.0,
                          count_noise_rel=0.1, seed=9, q_scale=123.0,
                          calibration=CalibrationState(10.0, 0.2))
    back = PredictorConfig.from_dict(asdict(cfg))
    assert back == cfg


def test_config_refuses_a_calibration_that_is_no_state():
    # a dict would pass until the first calibrate
    for bad in ({"labeled_view_frames": 0.0, "quality": 0.0}, None,
                (0.0, 0.0)):
        with pytest.raises(ValueError, match="predictor calibration must be "
                                             "a CalibrationState"):
            PredictorConfig(calibration=bad)
