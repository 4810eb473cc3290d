"""Orthonormal Haar wavelet transform and low-frequency color alignment.

Used to align the low-frequency content of a super-resolved image with the
upsampled low-resolution input while keeping the generated detail bands.
"""
from __future__ import annotations

import numpy as np

from .errors import GridShapeError

_S = np.sqrt(0.5)


def _haar_split(x: np.ndarray) -> tuple[np.ndarray, ...]:
    # rows
    lo = (x[:, 0::2, :] + x[:, 1::2, :]) * _S
    hi = (x[:, 0::2, :] - x[:, 1::2, :]) * _S
    # cols
    ll = (lo[:, :, 0::2] + lo[:, :, 1::2]) * _S
    lh = (lo[:, :, 0::2] - lo[:, :, 1::2]) * _S
    hl = (hi[:, :, 0::2] + hi[:, :, 1::2]) * _S
    hh = (hi[:, :, 0::2] - hi[:, :, 1::2]) * _S
    return ll, lh, hl, hh


def _haar_merge(ll, lh, hl, hh) -> np.ndarray:
    c, h, w = ll.shape
    lo = np.empty((c, h, 2 * w), dtype=np.float64)
    hi = np.empty((c, h, 2 * w), dtype=np.float64)
    lo[:, :, 0::2] = (ll + lh) * _S
    lo[:, :, 1::2] = (ll - lh) * _S
    hi[:, :, 0::2] = (hl + hh) * _S
    hi[:, :, 1::2] = (hl - hh) * _S
    out = np.empty((c, 2 * h, 2 * w), dtype=np.float64)
    out[:, 0::2, :] = (lo + hi) * _S
    out[:, 1::2, :] = (lo - hi) * _S
    return out


def haar_forward(img: np.ndarray, levels: int):
    """(low, details): the level-`levels` low band and the per-level
    (lh, hl, hh) detail bands, finest first; level k bands are (c, h/2^k, w/2^k).
    """
    _, h, w = img.shape
    if h % (1 << levels) or w % (1 << levels):
        raise GridShapeError(f"{h}x{w} not divisible by 2^{levels}")
    low = img.astype(np.float64)
    details = []
    for _ in range(levels):
        low, lh, hl, hh = _haar_split(low)
        details.append((lh, hl, hh))
    return low, tuple(details)


def haar_inverse(low: np.ndarray, details) -> np.ndarray:
    for lh, hl, hh in reversed(details):
        low = _haar_merge(low, lh, hl, hh)
    return low


def wavelet_color_normalize(sr: np.ndarray, lr_up: np.ndarray,
                            levels: int = 2) -> np.ndarray:
    """Swap sr's level-L low band for lr_up's; keep sr's detail bands."""
    if sr.shape != lr_up.shape:
        raise GridShapeError(f"shape mismatch: {sr.shape} vs {lr_up.shape}")
    _, details = haar_forward(sr, levels)
    low, _ = haar_forward(lr_up, levels)
    return haar_inverse(low, details).astype(sr.dtype, copy=False)
