"""Diffusion trajectory math over a precomputed noise schedule.

All trajectory operations are pure functions of an immutable NoiseSchedule:
closed-form forward sampling, truncated forward initialization for coarse
estimates, and a deterministic x0-prediction reverse update over a
sub-sampled step ladder.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridShapeError, check_allocatable


@dataclass(frozen=True)
class NoiseSchedule:
    """The read-only alpha_bar table of T diffusion steps; every trajectory
    operation below reads only it.

    alpha_bars has T+1 entries; alpha_bars[0] == 1 so indexing by time
    step t in [0, T] is direct.
    """

    T: int
    alpha_bars: np.ndarray

    def alpha_bar(self, t: int) -> float:
        return float(self.alpha_bars[t])


def build_linear_schedule(T: int, beta_start: float = 1e-4,
                          beta_end: float = 0.02) -> NoiseSchedule:
    """alpha_bar_t = prod_{s<=t} (1 - beta_s) over a linear beta ramp,
    computed in float64 in the ramp's own buffer and stored as float32."""
    if T < 1:
        raise ConfigError("T must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ConfigError("betas must satisfy 0 < beta_start <= beta_end < 1")
    check_allocatable(f"T={T}", T)
    prod = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    np.cumprod(np.subtract(1.0, prod, out=prod), out=prod)
    alpha_bars = np.concatenate(([1.0], prod), dtype=np.float32)
    alpha_bars.flags.writeable = False
    return NoiseSchedule(T, alpha_bars)


def _check_pair(a: np.ndarray, b: np.ndarray):
    if a.shape != b.shape:
        raise GridShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


def forward_sample(s: NoiseSchedule, x0: np.ndarray, t: int,
                   eps: np.ndarray) -> np.ndarray:
    """Closed-form marginal: sqrt(abar_t) x0 + sqrt(1 - abar_t) eps."""
    if not 1 <= t <= s.T:
        raise ConfigError(f"time step {t} outside [1, {s.T}]")
    _check_pair(x0, eps)
    ab = s.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def truncated_forward(s: NoiseSchedule, y0: np.ndarray, tau: int,
                      eps: np.ndarray) -> np.ndarray:
    """Noise the coarse estimate y0 up to intermediate step tau.

    Same math as forward_sample; kept as its own entry point because it
    initializes the reverse process from a non-Gaussian start.
    """
    return forward_sample(s, y0, tau, eps)


def make_substeps(tau: int, N: int) -> tuple[int, ...]:
    """Uniformly spaced, strictly decreasing steps from tau down to 0: N
    transitions, N + 1 steps.

    Consecutive steps differ by tau/N >= 1 before rounding, and by exactly 1
    only when tau == N, where every step is an exact integer, so rounding
    never makes two steps equal.
    """
    if N < 1:
        raise ConfigError("N must be >= 1")
    if N > tau:
        raise ConfigError(f"N={N} exceeds tau={tau}")
    return tuple(int(round(tau * (N - i) / N)) for i in range(N + 1))


def reverse_step(s: NoiseSchedule, x_t: np.ndarray, x0_hat: np.ndarray,
                 t: int, t_next: int) -> np.ndarray:
    """Deterministic x0-prediction update from step t to t_next.

    Re-derives the implied noise from (x_t, x0_hat) and jumps to t_next on
    the same noise direction; at t_next == 0 the prediction is returned as is.
    """
    if not 0 <= t_next < t <= s.T:
        raise ConfigError(f"need 0 <= t_next < t <= T, got t={t}, t_next={t_next}")
    _check_pair(x_t, x0_hat)
    if t_next == 0:
        return x0_hat.copy()
    ab_t = s.alpha_bar(t)
    ab_n = s.alpha_bar(t_next)
    # eps_hat = (x_t - sqrt(ab_t) x0_hat) / sqrt(1 - ab_t), then
    # sqrt(ab_n) x0_hat + sqrt(1 - ab_n) eps_hat: the same operations in the
    # same order, in place on two new arrays
    eps_hat = np.multiply(np.sqrt(ab_t), x0_hat)
    np.subtract(x_t, eps_hat, out=eps_hat)
    eps_hat /= np.sqrt(1.0 - ab_t)
    x_next = np.multiply(np.sqrt(ab_n), x0_hat)
    eps_hat *= np.sqrt(1.0 - ab_n)
    x_next += eps_hat
    return x_next
