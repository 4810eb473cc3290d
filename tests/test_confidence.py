import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from patchscaler.confidence import (GroupLabel, LossParams, Thresholds,
                                    build_qmap, confidence_loss_and_grads)
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


S, M, H = GroupLabel.SIMPLE, GroupLabel.MEDIUM, GroupLabel.HARD
# exact in float32 and float64, so constant maps average to them exactly
EXACT = Thresholds(0.875, 0.625)


def _grid(h, w, V, overlap=0):
    return decompose(np.zeros((1, h, w), np.float32), V, overlap)[1]


def _label(avg: float, th: Thresholds) -> GroupLabel:
    return S if avg > th.gamma1 else M if avg > th.gamma2 else H


def test_patch_mean_confidence():
    # a patch is labelled by the mean of its window, not by any one cell
    grid = _grid(8, 8, 4)
    c = np.full((1, 8, 8), 0.5)
    c[0, 0:2, 0:4] = 1.0      # window (0, 0): mean 0.75
    c[0, 4:8, 4:8] = 0.9      # window (4, 4): mean 0.9
    assert build_qmap(c, grid, EXACT) == [M, H, H, S]
    with pytest.raises(GridShapeError):
        build_qmap(np.ones((1, 8, 9)), grid, EXACT)


def test_build_qmap_needs_one_confidence_channel():
    # read by its first channel alone, this map would label all 9 patches
    # Simple and ignore the low confidence of the second
    grid = _grid(32, 32, 16, 8)
    c = np.ones((2, 32, 32))
    c[1] = 0.1
    with pytest.raises(GridShapeError, match="not one channel"):
        build_qmap(c, grid, Thresholds())
    with pytest.raises(GridShapeError, match="not one channel"):
        build_qmap(np.ones((32, 32)), grid, Thresholds())

def test_patch_mean_matches_double_loop():
    rng = np.random.Generator(np.random.PCG64(2))
    c = rng.uniform(0.01, 1.0, (1, 12, 12))
    grid = _grid(12, 12, 5, 2)
    th = Thresholds(0.52, 0.48)  # near the mean of the map, so all groups occur
    labels = build_qmap(c, grid, th)
    for (top, left), label in zip(grid.coords, labels, strict=True):
        total = 0.0
        for i in range(5):
            for j in range(5):
                total += c[0, top + i, left + j]
        assert label is _label(total / 25, th)
    assert set(labels) == {S, M, H}


def test_quantize_boundaries():
    grid = _grid(8, 8, 4)
    for dtype in (np.float32, np.float64):
        def labels(value, th=EXACT):
            return set(build_qmap(np.full((1, 8, 8), value, dtype), grid, th))

        assert labels(0.9) == {S}
        assert labels(0.875) == {M}  # (g2, g1] is right-closed
        assert labels(0.625) == {H}  # [0, g2] is right-closed
        assert labels(0.0) == {H}
        assert labels(1.0) == {S}
        # the thresholds hold as given: float32(0.1) lies above 0.1
        assert labels(dtype(0.1), Thresholds(0.5, 0.1)) == {M if dtype is np.float32 else H}
        for bad in (1.2, -0.1, np.nan):
            with pytest.raises(ConfigError):
                labels(bad)
    with pytest.raises(ConfigError):
        Thresholds(0.5, 0.8)


def test_quantize_total_partition():
    # one constant window per mean in [0, 1]: each gets exactly one label,
    # and difficulty never rises with the mean
    th = Thresholds(0.6, 0.2)
    avgs = np.linspace(0, 1, 101)
    c = np.repeat(avgs, 4)[None, None, :].repeat(4, axis=1)
    labels = build_qmap(c, _grid(4, 404, 4), th)
    assert labels == [_label(float(a), th) for a in avgs]
    assert labels == sorted(labels, key=[H, M, S].index)


@settings(max_examples=60, deadline=None)
@given(V=st.integers(1, 20), overlap_frac=st.floats(0, 0.99),
       extra_h=st.integers(0, 41), extra_w=st.integers(0, 41),
       seed=st.integers(0, 2**32 - 1), f32=st.booleans(),
       th=st.tuples(st.floats(0, 1), st.floats(0, 1)).filter(lambda t: t[0] != t[1]))
def test_build_qmap_matches_per_window_mean(V, overlap_frac, extra_h, extra_w,
                                            seed, f32, th):
    overlap = int(overlap_frac * V)
    h, w = V + extra_h, V + extra_w
    rng = np.random.Generator(np.random.PCG64(seed))
    c = rng.uniform(0.0, 1.0, (1, h, w)).astype(np.float32 if f32 else np.float64)
    th = Thresholds(max(th), min(th))
    grid = _grid(h, w, V, overlap)
    ref = [_label(float(np.mean(c[0, top:top + V, left:left + V])), th)
           for top, left in grid.coords]
    assert build_qmap(c, grid, th) == ref


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
        assert _label(avg, th) is label


def test_build_qmap_zero_region_is_hard():
    c = np.ones((1, 8, 8))
    c[0, 4:8, 4:8] = 1e-4
    _, grid = decompose(np.zeros((1, 8, 8), np.float32), 4, 0)
    labels = build_qmap(c, grid, Thresholds())
    assert labels[3] is GroupLabel.HARD
    assert labels[0] is GroupLabel.SIMPLE
