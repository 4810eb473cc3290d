"""Reference texture memory: build, compact, persist, and query.

Keys are unit-normalized feature vectors of texture patches; values are
the patches themselves.  The store is compacted offline by farthest point
sampling and queried with exact top-K normalized inner products.  A saved
memory records the seed of the extractor that made its keys, so a query
runs through the same feature map.
"""
from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DegenerateQueryError, DimensionMismatchError,
                     FormatError, GridShapeError, MagicMismatchError, NumericError,
                     TruncatedFileError)

_MAGIC = b"RTM2"
_HEADER = struct.Struct("<4IQ")  # n, D, c, V, extractor seed


@dataclass(frozen=True)
class TextureMemory:
    keys: np.ndarray    # (n, D) float32, unit L2 rows
    values: np.ndarray  # (n, c, V, V) float32
    extractor_seed: int = 0  # TextureExtractor(values.shape[1:], seed) made the keys

    def __post_init__(self):
        if not 0 <= self.extractor_seed < 2**64:
            raise ConfigError(f"extractor seed {self.extractor_seed} outside [0, 2**64)")

    def extractor(self) -> TextureExtractor:
        """The feature map that made the keys; queries must go through it."""
        return TextureExtractor(self.values.shape[1:], seed=self.extractor_seed)

    @property
    def count(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class RetrievalResult:
    indices: np.ndarray       # (K,) int
    similarities: np.ndarray  # (K,) float, descending
    priors: np.ndarray        # (K, c, V, V) float32


class TextureExtractor:
    """Seed-deterministic random-projection feature map for texture patches.

    A fixed two-layer projection (tanh in the middle, no biases) standing in
    for a learned texture classifier; pluggable behind the same interface.
    """

    def __init__(self, patch_shape: tuple[int, int, int], seed: int = 0):
        self.patch_shape = tuple(patch_shape)
        self.seed = seed
        hidden, dim = 64, 32
        rng = np.random.Generator(np.random.PCG64(seed))
        n_in = int(np.prod(patch_shape))
        self.w1 = rng.standard_normal((n_in, hidden)).astype(np.float32) / np.sqrt(n_in)
        self.w2 = rng.standard_normal((hidden, dim)).astype(np.float32) / np.sqrt(hidden)

    def __call__(self, patch: np.ndarray) -> np.ndarray:
        if patch.shape != self.patch_shape:
            raise GridShapeError(f"patch {patch.shape} != extractor input {self.patch_shape}")
        flat = patch.astype(np.float32).reshape(-1)
        return np.tanh(flat @ self.w1) @ self.w2


def extract_query(t, patch: np.ndarray) -> np.ndarray:
    """Unit-normalized feature vector of a patch; errors on a zero or
    non-finite feature."""
    feat = np.asarray(t(patch), dtype=np.float32)
    norm = float(np.linalg.norm(feat.astype(np.float64)))
    if not math.isfinite(norm):
        raise NumericError("feature vector is not finite")
    if norm < 1e-12:
        raise DegenerateQueryError("feature vector has zero norm")
    return (feat / norm).astype(np.float32)


def farthest_point_sample(keys: np.ndarray, m: int) -> np.ndarray:
    """Greedy max-min subset selection from key 0; ties broken by lowest index."""
    n = len(keys)
    if not 1 <= m <= n:
        raise ConfigError(f"need 1 <= m <= {n}, got {m}")
    pts = keys.astype(np.float64)
    chosen = [0]
    min_dist = np.linalg.norm(pts - pts[0], axis=1)
    for _ in range(m - 1):
        nxt = int(np.argmax(min_dist))  # argmax returns the first (lowest) index
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(pts - pts[nxt], axis=1))
    return np.array(chosen, dtype=np.int64)


def index_patches(patches, t) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Keys of the patches that have features, and those patches: a
    featureless patch gives no direction to retrieve it by, so it is left out."""
    keys, kept = [], []
    for p in patches:
        try:
            keys.append(extract_query(t, p))
        except DegenerateQueryError:
            continue
        kept.append(p)
    return keys, kept


def compact_memory(keys, patches, m: int, extractor_seed: int) -> TextureMemory:
    """m of the indexed patches chosen by FPS over key space; FPS rejects an
    m above the number of patches.  A chosen patch that is not finite (an
    inf cell can still have a finite key) raises NumericError."""
    if not patches:
        raise ConfigError("no source patch has features")
    keys = np.stack(keys)
    idx = farthest_point_sample(keys, m)
    values = np.stack([patches[i] for i in idx]).astype(np.float32)
    if not np.isfinite(values).all():
        raise NumericError("a memory patch is not finite")
    return TextureMemory(keys=keys[idx], values=values, extractor_seed=extractor_seed)


def build_memory(patches: list[np.ndarray], t, m: int) -> TextureMemory:
    """Index the patches that have features, compact them to m entries."""
    return compact_memory(*index_patches(patches, t), m, t.seed)


def retrieve_topk(mem: TextureMemory, patch: np.ndarray, t, K: int) -> RetrievalResult:
    """Exact top-K by normalized inner product, descending, ties by index."""
    if not 1 <= K <= mem.count:
        raise ConfigError(f"need 1 <= K <= {mem.count}, got {K}")
    query = extract_query(t, patch)
    if query.shape != mem.keys.shape[1:]:
        raise DimensionMismatchError(f"{len(query)} query features, memory keys have "
                                     f"{mem.keys.shape[1]}")
    sims = mem.keys.astype(np.float64) @ query.astype(np.float64)
    order = np.lexsort((np.arange(mem.count), -sims))[:K]
    return RetrievalResult(indices=order.astype(np.int64),
                           similarities=sims[order],
                           priors=mem.values[order])


def save_memory(mem: TextureMemory, path):
    n, D = mem.keys.shape
    _, c, V, _ = mem.values.shape
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(_HEADER.pack(n, D, c, V, mem.extractor_seed))
        f.write(np.ascontiguousarray(mem.keys, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(mem.values, dtype="<f4").tobytes())


def load_memory(path) -> TextureMemory:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise MagicMismatchError(f"bad magic {magic!r}, expected {_MAGIC!r}")
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TruncatedFileError("header truncated")
        n, D, c, V, seed = _HEADER.unpack(header)
        if min(n, D, c, V) < 1:
            raise DimensionMismatchError(f"memory sizes must be positive: {(n, D, c, V)}")
        key_count, val_count = n * D * 4, n * c * V * V * 4
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if payload < key_count + val_count:
            raise TruncatedFileError(f"payload of {payload} bytes, header declares "
                                     f"{key_count + val_count}")
        if payload > key_count + val_count:
            raise DimensionMismatchError("trailing bytes beyond declared payload")
        key_bytes = f.read(key_count)
        val_bytes = f.read(val_count)
    keys = np.frombuffer(key_bytes, dtype="<f4").reshape(n, D).copy()
    values = np.frombuffer(val_bytes, dtype="<f4").reshape(n, c, V, V).copy()
    if not (np.isfinite(keys).all() and np.isfinite(values).all()):
        raise FormatError("memory keys or values are not finite")
    return TextureMemory(keys=keys, values=values, extractor_seed=seed)
