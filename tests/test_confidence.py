import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from patchscaler.confidence import (GroupLabel, LossParams, Thresholds,
                                    build_qmap, confidence_loss_and_grads,
                                    patch_mean_confidence, quantize)
from patchscaler.errors import ConfigError, GridShapeError
from patchscaler.tiling import decompose


def test_perfect_prediction_zero_loss():
    x = np.ones((2, 4, 4))
    c = np.ones((1, 4, 4))
    assert confidence_loss_and_grads(x, x, c)[0] == pytest.approx(0.0)


def test_minimizing_confidence_matches_closed_form():
    # per-cell term C e^2 - eta log C is minimized at C* = eta / e^2
    e2, eta = 4.0, 1.0
    res = minimize_scalar(lambda c: c * e2 - eta * np.log(c),
                          bounds=(1e-9, 1.0), method="bounded",
                          options={"xatol": 1e-10})
    assert res.x == pytest.approx(0.25, abs=1e-6)


def test_lambda_scaling_monotone():
    rng = np.random.Generator(np.random.PCG64(0))
    y = rng.standard_normal((1, 4, 4))
    x = rng.standard_normal((1, 4, 4))
    c = np.full((1, 4, 4), 0.5)
    l1 = confidence_loss_and_grads(y, x, c, LossParams(lam=1.0, eta=1.0))[0]
    l2 = confidence_loss_and_grads(y, x, c, LossParams(lam=2.0, eta=1.0))[0]
    base = np.mean(np.abs(y - x)) ** 2
    assert (l2 - base) > (l1 - base) > 0


def test_loss_rejects_bad_confidence():
    x = np.zeros((1, 2, 2))
    c = np.zeros((1, 2, 2))
    with pytest.raises(ConfigError):
        confidence_loss_and_grads(x, x, c)


def test_loss_gradients_match_finite_differences():
    rng = np.random.Generator(np.random.PCG64(1))
    y = rng.standard_normal((2, 3, 3))
    x = rng.standard_normal((2, 3, 3))
    c = rng.uniform(0.1, 0.9, (1, 3, 3))
    p = LossParams(lam=0.7, eta=1.3)
    _, d_y, d_c = confidence_loss_and_grads(y, x, c, p)
    h = 1e-6
    for idx in [(0, 0, 0), (1, 2, 1), (0, 1, 2)]:
        y[idx] += h
        lp = confidence_loss_and_grads(y, x, c, p)[0]
        y[idx] -= 2 * h
        lm = confidence_loss_and_grads(y, x, c, p)[0]
        y[idx] += h
        assert (lp - lm) / (2 * h) == pytest.approx(d_y[idx], rel=1e-4)
    for idx in [(0, 0, 1), (0, 2, 2)]:
        c[idx] += h
        lp = confidence_loss_and_grads(y, x, c, p)[0]
        c[idx] -= 2 * h
        lm = confidence_loss_and_grads(y, x, c, p)[0]
        c[idx] += h
        assert (lp - lm) / (2 * h) == pytest.approx(d_c[idx], rel=1e-4)


def test_patch_mean_confidence():
    c = np.full((1, 8, 8), 0.8)
    assert patch_mean_confidence(c, (0, 0), 4) == pytest.approx(0.8)
    c2 = np.array([[[1.0, 1.0], [0.5, 0.5]]])
    assert patch_mean_confidence(c2, (0, 0), 2) == pytest.approx(0.75)
    with pytest.raises(GridShapeError):
        patch_mean_confidence(c, (6, 6), 4)


def test_patch_mean_matches_double_loop():
    rng = np.random.Generator(np.random.PCG64(2))
    c = rng.uniform(0.01, 1.0, (1, 12, 12))
    total = 0.0
    for i in range(5):
        for j in range(5):
            total += c[0, 2 + i, 3 + j]
    assert patch_mean_confidence(c, (2, 3), 5) == pytest.approx(total / 25, abs=1e-7)


def test_quantize_boundaries():
    th = Thresholds(0.95, 0.75)
    assert quantize(0.97, th) is GroupLabel.SIMPLE
    assert quantize(0.95, th) is GroupLabel.MEDIUM  # (g2, g1] is right-closed
    assert quantize(0.75, th) is GroupLabel.HARD    # [0, g2] is right-closed
    assert quantize(0.0, th) is GroupLabel.HARD
    assert quantize(1.0, th) is GroupLabel.SIMPLE
    with pytest.raises(ConfigError):
        quantize(1.2, th)
    with pytest.raises(ConfigError):
        Thresholds(0.5, 0.8)


def test_quantize_total_partition():
    th = Thresholds(0.6, 0.2)
    for avg in np.linspace(0, 1, 101):
        assert quantize(float(avg), th) in GroupLabel


def test_build_qmap_constant_and_brute_force():
    c = np.ones((1, 8, 8))
    _, grid = decompose(np.zeros((1, 8, 8), np.float32), 4, 0)
    th = Thresholds()
    assert build_qmap(c, grid, th) == [GroupLabel.SIMPLE] * 4

    rng = np.random.Generator(np.random.PCG64(3))
    c = rng.uniform(0.01, 1.0, (1, 8, 8))
    labels = build_qmap(c, grid, th)
    for (top, left), label in zip(grid.coords, labels):
        avg = float(np.mean(c[0, top:top + 4, left:left + 4]))
        assert quantize(avg, th) is label


def test_build_qmap_zero_region_is_hard():
    c = np.ones((1, 8, 8))
    c[0, 4:8, 4:8] = 1e-4
    _, grid = decompose(np.zeros((1, 8, 8), np.float32), 4, 0)
    labels = build_qmap(c, grid, Thresholds())
    assert labels[3] is GroupLabel.HARD
    assert labels[0] is GroupLabel.SIMPLE
