"""Confidence-driven loss and the quantified difficulty map.

The loss couples a squared-L1 reconstruction term with a per-cell
confidence-weighted squared error and a log barrier that keeps the
confidence away from zero.  Per-patch mean confidence is thresholded into
Simple / Medium / Hard difficulty labels.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GridShapeError
from .tiling import PatchGrid

CONF_FLOOR = 1e-4  # lower clamp so log(C) stays finite


class GroupLabel(enum.Enum):
    SIMPLE = "simple"
    MEDIUM = "medium"
    HARD = "hard"


@dataclass(frozen=True)
class Thresholds:
    gamma1: float = 0.95
    gamma2: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.gamma2 < self.gamma1 <= 1.0:
            raise ConfigError(
                f"need 0 <= gamma2 < gamma1 <= 1, got ({self.gamma1}, {self.gamma2})")


@dataclass(frozen=True)
class LossParams:
    lam: float = 1.0
    eta: float = 1.0


def confidence_loss_and_grads(y_hr: np.ndarray, x_hr: np.ndarray,
                              c: np.ndarray, p: LossParams = LossParams()):
    """Loss value plus gradients w.r.t. the prediction and the confidence map.

    All reductions are means, so the value is resolution independent; the
    confidence map (1, h, w) is broadcast across channels.
    """
    if np.any(c <= 0):
        raise ConfigError("confidence values must be strictly positive")

    diff = y_hr.astype(np.float64) - x_hr.astype(np.float64)
    n = diff.size
    n_cells = c.size
    c64 = c.astype(np.float64)

    mean_abs = np.mean(np.abs(diff))
    conf_term = np.mean(c64 * diff * diff) - p.eta * np.mean(np.log(c64))
    loss = mean_abs ** 2 + p.lam * conf_term

    # d/dy: 2*mean_abs * sign/n  +  lam * 2*C*diff/n
    d_y = 2.0 * mean_abs * np.sign(diff) / n + p.lam * 2.0 * c64 * diff / n
    # d/dC (per cell): lam * (sum_ch diff^2 / n  -  eta / (n_cells * C))
    d_c = p.lam * (np.sum(diff * diff, axis=0, keepdims=True) / n
                   - p.eta / (n_cells * c64))
    return float(loss), d_y, d_c


def build_qmap(c: np.ndarray, grid: PatchGrid, th: Thresholds) -> list[GroupLabel]:
    """Label each patch by the mean confidence of its window: Simple in
    (gamma1, 1], Medium in (gamma2, gamma1], Hard in [0, gamma2]."""
    if c.shape != (1,) + grid.shape[1:]:
        raise GridShapeError(f"confidence map {c.shape} is not one channel over "
                             f"grid {grid.shape}")
    windows = sliding_window_view(c[0], (grid.V, grid.V))[np.ix_(grid.tops, grid.lefts)]
    means = windows.mean(axis=(2, 3)).ravel()
    if not np.all((means >= 0.0) & (means <= 1.0)):  # a NaN fails too
        raise ConfigError(f"mean confidence outside [0, 1]: min {means.min()}, "
                          f"max {means.max()}")
    return [GroupLabel.SIMPLE if m > th.gamma1 else
            GroupLabel.MEDIUM if m > th.gamma2 else GroupLabel.HARD
            for m in means.tolist()]
