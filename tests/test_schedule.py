import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchscaler.errors import ConfigError, GridShapeError
from patchscaler.schedule import (build_linear_schedule, forward_sample,
                                  make_substeps, reverse_step, truncated_forward)

from conftest import forward_step


def test_constant_beta_products():
    s = build_linear_schedule(2, 0.1, 0.1)
    assert np.allclose(s.alpha_bars, [1.0, 0.9, 0.81])


@settings(max_examples=200, deadline=None)
@given(T=st.integers(1, 5000),
       ends=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                     min_size=2, max_size=2).map(sorted))
def test_alpha_bars_are_the_float32_running_product(T, ends):
    b0, b1 = ends
    ref = np.concatenate(([1.0], np.cumprod(1.0 - np.linspace(b0, b1, T)))).astype(np.float32)
    got = build_linear_schedule(T, b0, b1).alpha_bars
    assert got.dtype == np.float32 and got.tobytes() == ref.tobytes()


def test_alpha_bars_are_read_only():
    s = build_linear_schedule(10)
    with pytest.raises(ValueError, match="read-only"):
        s.alpha_bars[3] = 0.5
    assert s.alpha_bar(3) < 1.0


def test_single_step_schedule():
    s = build_linear_schedule(1, 0.5, 0.5)
    assert s.alpha_bar(1) == pytest.approx(0.5)
    assert s.alpha_bar(0) == 1.0


def test_alpha_bar_matches_high_precision_product():
    s = build_linear_schedule(1000, 1e-4, 0.02)
    # independent 64-bit oracle: plain python product over the linear ramp
    betas = [1e-4 + (0.02 - 1e-4) * i / 999 for i in range(1000)]
    prod = 1.0
    for b in betas:
        prod *= 1.0 - b
    assert abs(s.alpha_bar(1000) - prod) / prod <= 1e-6


def test_schedule_invariants():
    s = build_linear_schedule(500)
    alphas = 1.0 - np.linspace(1e-4, 0.02, 500)
    assert np.all(np.diff(s.alpha_bars) < 0)
    assert s.alpha_bar(0) == 1.0 and s.alpha_bar(s.T) > 0
    # product identity abar_t = abar_{t-1} * alpha_t (float32 table)
    recon = s.alpha_bars[:-1] * alphas
    assert np.allclose(recon, s.alpha_bars[1:], rtol=1e-6)


def test_schedule_rejects_bad_config():
    with pytest.raises(ConfigError):
        build_linear_schedule(0)
    with pytest.raises(ConfigError):
        build_linear_schedule(10, 0.0, 0.1)
    with pytest.raises(ConfigError):
        build_linear_schedule(10, 0.2, 0.1)
    with pytest.raises(ConfigError):
        build_linear_schedule(10, 0.5, 1.0)


@pytest.mark.parametrize("T", [10**17, 10**19])
def test_schedule_too_long_to_allocate_is_config_error(T):
    # numpy refuses both without allocating: 10**17 float64 steps (711 PiB)
    # exceed every 64-bit address space, and 10**19 exceeds numpy's largest
    # array size
    with pytest.raises(ConfigError, match=f"T={T} is too large"):
        build_linear_schedule(T)


def test_forward_sample_zero_noise_and_zero_signal():
    s = build_linear_schedule(2, 0.1, 0.1)
    x0 = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
    out = forward_sample(s, x0, 2, np.zeros_like(x0))
    assert np.allclose(out, 0.9 * x0, atol=1e-6)
    eps = np.ones_like(x0)
    out = forward_sample(s, np.zeros_like(x0), 2, eps)
    assert np.allclose(out, np.sqrt(1 - 0.81) * eps, atol=1e-6)


def test_forward_sample_range_and_shape_errors():
    s = build_linear_schedule(10)
    x = np.zeros((1, 2, 2))
    with pytest.raises(ConfigError):
        forward_sample(s, x, 0, x)
    with pytest.raises(ConfigError):
        forward_sample(s, x, 11, x)
    with pytest.raises(GridShapeError):
        forward_sample(s, x, 3, np.zeros((1, 2, 3)))


def test_forward_sample_monte_carlo_moments():
    s = build_linear_schedule(1000)
    rng = np.random.Generator(np.random.PCG64(0))
    t = 300
    x0 = np.full(10_000, 1.7)
    eps = rng.standard_normal(10_000)
    x_t = forward_sample(s, x0, t, eps)
    ab = s.alpha_bar(t)
    se_mean = np.sqrt(1 - ab) / np.sqrt(10_000)
    se_var = (1 - ab) * np.sqrt(2 / (10_000 - 1))
    assert abs(x_t.mean() - np.sqrt(ab) * 1.7) <= 3 * se_mean
    assert abs(x_t.var(ddof=1) - (1 - ab)) <= 3 * se_var


def test_forward_step_simple_cases():
    betas = np.linspace(0.1, 0.1, 2)
    x = np.ones((1, 2, 2))
    assert np.allclose(forward_step(betas, x, 1, np.zeros_like(x)), np.sqrt(0.9))
    e = np.full_like(x, 2.0)
    assert np.allclose(forward_step(betas, np.zeros_like(x), 2, e), np.sqrt(0.1) * 2)


def test_iterated_steps_match_closed_form():
    s = build_linear_schedule(1000)
    betas = np.linspace(1e-4, 0.02, 1000)
    rng = np.random.Generator(np.random.PCG64(1))
    t_star = 200
    n = 10_000
    x = np.full(n, 0.8)
    for t in range(1, t_star + 1):
        x = forward_step(betas, x, t, rng.standard_normal(n))
    ab = s.alpha_bar(t_star)
    se_mean = np.sqrt(1 - ab) / np.sqrt(n)
    se_var = (1 - ab) * np.sqrt(2 / (n - 1))
    assert abs(x.mean() - np.sqrt(ab) * 0.8) <= 3 * se_mean
    assert abs(x.var(ddof=1) - (1 - ab)) <= 3 * se_var


def test_truncated_forward_cases():
    s = build_linear_schedule(1000)
    # find tau with abar close to 0.5
    tau = int(np.argmin(np.abs(s.alpha_bars - 0.5)))
    y0 = np.ones((1, 3, 3))
    out = truncated_forward(s, y0, tau, np.zeros_like(y0))
    assert np.allclose(out, np.sqrt(s.alpha_bar(tau)) * y0)
    # endpoint dominated by noise
    eps = np.full_like(y0, 0.3)
    out = truncated_forward(s, y0, s.T, eps)
    assert np.max(np.abs(out - np.sqrt(1 - s.alpha_bar(s.T)) * eps)) \
        <= np.sqrt(s.alpha_bar(s.T)) * np.max(np.abs(y0)) + 1e-7


def test_make_substeps_examples():
    assert make_substeps(1000, 20) == tuple(range(1000, -1, -50))
    assert make_substeps(400, 8) == (400, 350, 300, 250, 200, 150, 100, 50, 0)
    assert make_substeps(3, 3) == (3, 2, 1, 0)
    with pytest.raises(ConfigError):
        make_substeps(5, 6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 1000), st.data())
def test_make_substeps_strictly_decreasing(tau, data):
    n = data.draw(st.integers(1, tau))
    ladder = make_substeps(tau, n)
    assert ladder[0] == tau and ladder[-1] == 0
    assert len(ladder) == n + 1
    assert all(a > b for a, b in zip(ladder, ladder[1:]))


def test_reverse_step_perfect_prediction_consistency():
    s = build_linear_schedule(1000)
    rng = np.random.Generator(np.random.PCG64(2))
    x0 = rng.standard_normal((1, 4, 4))
    e = rng.standard_normal((1, 4, 4))
    x_t = forward_sample(s, x0, 700, e)
    out = reverse_step(s, x_t, x0, 700, 350)
    assert np.allclose(out, forward_sample(s, x0, 350, e), atol=1e-6)


def test_reverse_step_terminal_and_errors():
    s = build_linear_schedule(100)
    x = np.zeros((1, 2, 2))
    x0 = np.ones_like(x)
    assert np.array_equal(reverse_step(s, x, x0, 5, 0), x0)
    with pytest.raises(ConfigError):
        reverse_step(s, x, x0, 5, 5)
    with pytest.raises(ConfigError):
        reverse_step(s, x, x0, 5, 9)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t_next", [350, 0])
def test_reverse_step_leaves_its_inputs_alone(dtype, t_next):
    # in place on new arrays, with the dtype and bits of the expressions
    # eps = (x_t - sqrt(ab_t) x0) / sqrt(1 - ab_t) and
    # sqrt(ab_n) x0 + sqrt(1 - ab_n) eps
    s = build_linear_schedule(1000)
    rng = np.random.Generator(np.random.PCG64(4))
    x_t = rng.standard_normal((3, 1, 4, 4)).astype(dtype)
    x0 = rng.standard_normal((3, 1, 4, 4)).astype(dtype)
    before = x_t.copy(), x0.copy()
    out = reverse_step(s, x_t, x0, 700, t_next)
    if t_next:
        ab_t, ab_n = s.alpha_bar(700), s.alpha_bar(t_next)
        eps = (x_t - np.sqrt(ab_t) * x0) / np.sqrt(1.0 - ab_t)
        expected = np.sqrt(ab_n) * x0 + np.sqrt(1.0 - ab_n) * eps
    else:
        expected = x0
    assert np.array_equal(x_t, before[0]) and np.array_equal(x0, before[1])
    assert not np.shares_memory(out, x_t) and not np.shares_memory(out, x0)
    assert out.dtype == expected.dtype and np.array_equal(out, expected)


def test_full_ladder_descent_with_perfect_prediction():
    s = build_linear_schedule(1000)
    rng = np.random.Generator(np.random.PCG64(3))
    x0 = rng.standard_normal((1, 4, 4))
    e = rng.standard_normal((1, 4, 4))
    ladder = make_substeps(1000, 20)
    x = forward_sample(s, x0, 1000, e)
    for t, t_next in zip(ladder, ladder[1:]):
        x = reverse_step(s, x, x0, t, t_next)
    assert np.max(np.abs(x - x0)) <= 1e-5
