"""Overlapping patch decomposition and recomposition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridShapeError


def _anchors(size: int, V: int, overlap: int) -> list[int]:
    stride = V - overlap
    starts = list(range(0, size - V + 1, stride))
    if starts[-1] != size - V:
        # clamp the last window so it stays inside the grid
        starts.append(size - V)
    return starts


@dataclass(frozen=True)
class PatchGrid:
    """Anchor layout of overlapping V x V windows over a (c, h, w) grid."""

    V: int
    coords: tuple[tuple[int, int], ...]
    shape: tuple[int, int, int]

    @property
    def count(self) -> int:
        return len(self.coords)


def decompose(feature: np.ndarray, V: int, overlap: int) -> tuple[list[np.ndarray], PatchGrid]:
    """Split (c, h, w) into row-major overlapping V x V views of the grid."""
    c, h, w = feature.shape
    if not 0 <= overlap < V:
        raise ConfigError(f"overlap must be in [0, V), got {overlap} for V={V}")
    if h < V or w < V:
        raise GridShapeError(f"grid {h}x{w} smaller than patch size {V}")
    coords = [(top, left)
              for top in _anchors(h, V, overlap)
              for left in _anchors(w, V, overlap)]
    grid = PatchGrid(V=V, coords=tuple(coords), shape=(c, h, w))
    return [feature[:, top:top + V, left:left + V] for top, left in coords], grid


def recompose(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Uniform-average blend of a (N, c, V, V) patch stack onto the source grid."""
    patches = np.asarray(patches)
    c, h, w = grid.shape
    V = grid.V
    if patches.shape != (grid.count, c, V, V):
        raise GridShapeError(f"expected patches {(grid.count, c, V, V)}, got {patches.shape}")
    acc = np.zeros((c, h, w), dtype=np.float64)
    cover = np.zeros((h, w), dtype=np.float64)
    for (top, left), p in zip(grid.coords, patches):
        acc[:, top:top + V, left:left + V] += p
        cover[top:top + V, left:left + V] += 1.0
    if np.any(cover == 0):
        raise GridShapeError("patch grid does not cover the source grid")
    out = acc * (1.0 / cover)[None, :, :]
    return out.astype(patches.dtype, copy=False)
