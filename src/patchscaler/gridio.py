"""Raw grid file I/O: PSG1 float grids plus 8-bit PGM/PPM export."""
from __future__ import annotations

import os

import numpy as np

from .errors import (DimensionMismatchError, GridShapeError,
                     MagicMismatchError, TruncatedFileError)

_MAGIC = b"PSG1"


def save_grid(path, grid: np.ndarray):
    """ASCII header 'PSG1 c h w' then little-endian float32 payload."""
    if grid.ndim != 3:
        raise GridShapeError("expected a (c, h, w) grid")
    c, h, w = grid.shape
    with open(path, "wb") as f:
        f.write(f"PSG1 {c} {h} {w}\n".encode())
        f.write(np.ascontiguousarray(grid, dtype="<f4").tobytes())


def load_grid(path) -> np.ndarray:
    with open(path, "rb") as f:
        header = f.readline()
        parts = header.split()
        if not parts or parts[0] != _MAGIC:
            raise MagicMismatchError(f"not a PSG1 grid file: {header[:16]!r}")
        if len(parts) != 4:
            raise DimensionMismatchError(f"malformed header {header!r}")
        try:
            c, h, w = (int(p) for p in parts[1:])
        except ValueError as e:
            raise DimensionMismatchError(f"malformed header {header!r}") from e
        if min(c, h, w) < 1:
            raise DimensionMismatchError(f"grid dimensions must be positive: {header!r}")
        nbytes = 4 * c * h * w
        if os.fstat(f.fileno()).st_size - f.tell() < nbytes:
            raise TruncatedFileError("grid payload truncated")
        raw = f.read(nbytes)
    return np.frombuffer(raw, dtype="<f4").reshape(c, h, w).copy()


def export_pnm(path, grid: np.ndarray):
    """8-bit PGM (1 channel) or PPM (3 channels) for quick visual checks."""
    if grid.ndim != 3 or grid.shape[0] not in (1, 3):
        raise GridShapeError("PNM export needs a (1|3, h, w) grid")
    lo, hi = float(grid.min()), float(grid.max())
    span = hi - lo if hi > lo else 1.0
    img = np.clip((grid - lo) / span * 255.0, 0, 255).astype(np.uint8)
    c, h, w = img.shape
    magic = b"P5" if c == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + f"\n{w} {h}\n255\n".encode())
        f.write(img.transpose(1, 2, 0).tobytes())
