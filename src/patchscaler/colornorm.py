"""Low-frequency color alignment of a super-resolved image to its input.

Keeps the generated detail while taking the coarse color from the
upsampled low-resolution input.
"""
from __future__ import annotations

import numpy as np

from .errors import GridShapeError


def wavelet_color_normalize(sr: np.ndarray, lr_up: np.ndarray,
                            levels: int = 2) -> np.ndarray:
    """Swap sr's level-L orthonormal Haar low band for lr_up's, keeping sr's
    detail bands: sr + (blockmean(lr_up) - blockmean(sr)) on 2^L blocks."""
    if sr.shape != lr_up.shape:
        raise GridShapeError(f"shape mismatch: {sr.shape} vs {lr_up.shape}")
    c, h, w = sr.shape
    b = 1 << levels
    if h % b or w % b:
        raise GridShapeError(f"{h}x{w} not divisible by 2^{levels}")
    blocks = (c, h // b, b, w // b, b)
    out = sr.astype(np.float64).reshape(blocks)
    ref = lr_up.astype(np.float64, copy=False).reshape(blocks)
    out += ref.mean(axis=(2, 4), keepdims=True) - out.mean(axis=(2, 4), keepdims=True)
    return out.reshape(c, h, w).astype(sr.dtype, copy=False)
