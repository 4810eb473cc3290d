"""Overlapping patch decomposition and recomposition."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, GridShapeError


def _anchors(size: int, V: int, overlap: int) -> tuple[int, ...]:
    starts = tuple(range(0, size - V + 1, V - overlap))
    if starts[-1] != size - V:
        # clamp the last window so it stays inside the grid
        starts += (size - V,)
    return starts


def _window_counts(starts, V: int, size: int) -> np.ndarray:
    """How many of the V-wide windows at starts cover each of size indices."""
    counts = np.zeros(size)
    for s in starts:
        counts[s:s + V] += 1.0
    return counts


@dataclass(frozen=True)
class PatchGrid:
    """Overlapping V x V windows over a (c, h, w) grid: one at each pair of a
    row anchor in tops and a column anchor in lefts, in row-major order."""

    V: int
    tops: tuple[int, ...]
    lefts: tuple[int, ...]
    shape: tuple[int, int, int]

    @property
    def coords(self) -> tuple[tuple[int, int], ...]:
        return tuple((top, left) for top in self.tops for left in self.lefts)

    @property
    def count(self) -> int:
        return len(self.tops) * len(self.lefts)


def decompose(feature: np.ndarray, V: int, overlap: int) -> tuple[list[np.ndarray], PatchGrid]:
    """Split (c, h, w) into row-major overlapping V x V views of the grid."""
    c, h, w = feature.shape
    if not 0 <= overlap < V:
        raise ConfigError(f"overlap must be in [0, V), got {overlap} for V={V}")
    if h < V or w < V:
        raise GridShapeError(f"grid {h}x{w} smaller than patch size {V}")
    grid = PatchGrid(V, _anchors(h, V, overlap), _anchors(w, V, overlap), (c, h, w))
    return [feature[:, top:top + V, left:left + V] for top, left in grid.coords], grid


def recompose(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Uniform-average blend of a (N, c, V, V) patch stack onto the source grid.

    The float64 sum and the coverage are the only whole-grid arrays made:
    the sum is scaled in place by the coverage's reciprocal, the bits of
    sum * (1 / cover), and returned, cast only when patches are not float64.
    """
    patches = np.asarray(patches)
    c, h, w = grid.shape
    V = grid.V
    if patches.shape != (grid.count, c, V, V):
        raise GridShapeError(f"expected patches {(grid.count, c, V, V)}, got {patches.shape}")
    acc = np.zeros((c, h, w), dtype=np.float64)
    for (top, left), p in zip(grid.coords, patches):
        acc[:, top:top + V, left:left + V] += p
    # every row anchor pairs with every column anchor, so the coverage is the
    # outer product of the windows over each row and over each column
    cover = np.outer(_window_counts(grid.tops, V, h), _window_counts(grid.lefts, V, w))
    if np.any(cover == 0):
        raise GridShapeError("patch grid does not cover the source grid")
    acc *= np.divide(1.0, cover, out=cover)
    return acc.astype(patches.dtype, copy=False)
