"""Parameter checkpoint files: named float32 sections behind a PSCK magic,
and the section that records the noise schedule a model was trained for."""
from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import (ConfigError, DimensionMismatchError, FormatError,
                     MagicMismatchError, TruncatedFileError)

_MAGIC = b"PSCK"
_VERSION = 1
# the (T, beta_start, beta_end) of the noise schedule a model was trained for
SCHEDULE = "meta.schedule"


def save_params(path, params: dict):
    """Write params as little-endian float32 sections, sorted by name."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(params)))
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name], dtype="<f4")
            nb = name.encode()
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def _read(f, n: int, what: str) -> bytes:
    """Exactly n bytes from f; fewer means the file ends inside `what`."""
    raw = f.read(n)
    if len(raw) < n:
        raise TruncatedFileError(f"{what} truncated")
    return raw


def load_params(path) -> dict:
    """Read a checkpoint back as float64 arrays (float32-valued)."""
    # a signalling NaN loads as a quiet one, for the numeric checks
    # downstream, rather than warn in the float64 cast
    with open(path, "rb") as f, np.errstate(invalid="ignore"):
        if f.read(4) != _MAGIC:
            raise MagicMismatchError(f"not a {_MAGIC.decode()} checkpoint")
        version, count = struct.unpack("<II", _read(f, 8, "checkpoint header"))
        if version != _VERSION:
            raise DimensionMismatchError(f"unsupported checkpoint version {version}")
        params = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read(f, 2, "section header"))
            raw = _read(f, name_len, "section name")
            try:
                name = raw.decode()
            except UnicodeDecodeError as e:
                raise DimensionMismatchError(f"section name {raw[:32]!r} is not UTF-8") from e
            (ndim,) = struct.unpack("<B", _read(f, 1, "section rank"))
            shape = struct.unpack(f"<{ndim}I", _read(f, 4 * ndim, "section shape"))
            # a Python int, so a huge declared shape cannot overflow
            nbytes = 4 * math.prod(shape)
            if os.fstat(f.fileno()).st_size - f.tell() < nbytes:
                raise TruncatedFileError(f"section '{name}' declares {nbytes} bytes, "
                                         "more than the file holds")
            # numpy refuses a shape whose nonzero dimensions overflow its size
            # limit even when a zero dimension leaves it without elements
            if 8 * math.prod(d for d in shape if d) > np.iinfo(np.intp).max:
                raise DimensionMismatchError(f"section '{name}' shape {shape} is too large")
            raw = f.read(nbytes)
            params[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float64)
    return params


def restore_into(model, loaded: dict):
    """Copy loaded sections into a model's params, validating shapes."""
    for name, arr in model.params.items():
        if name not in loaded:
            raise DimensionMismatchError(f"checkpoint missing section '{name}'")
        if loaded[name].shape != arr.shape:
            raise DimensionMismatchError(
                f"section '{name}' shape {loaded[name].shape} != {arr.shape}")
        model.params[name] = loaded[name].copy()


def schedule_section(T: int, beta_start: float, beta_end: float) -> dict:
    """The section that records a training noise schedule, to save beside
    the params; a T above 2**24, which float32 cannot hold exactly, is a
    ConfigError."""
    if T > 2**24:
        raise ConfigError(f"T={T} exceeds 2**24, the largest T a checkpoint "
                          f"records exactly")
    return {SCHEDULE: np.array([T, beta_start, beta_end], np.float32)}


def check_schedule(loaded: dict, T: int, beta_start: float, beta_end: float):
    """ConfigError if the loaded checkpoint was trained for another schedule
    than (T, beta_start, beta_end): T compared exactly, the betas in float32
    as stored; a checkpoint without the section passes."""
    trained = loaded.get(SCHEDULE)
    if trained is None:
        return
    if trained.shape != (3,):
        raise DimensionMismatchError(f"section '{SCHEDULE}' shape {trained.shape} != (3,)")
    if not np.isfinite(trained).all():
        raise FormatError(f"section '{SCHEDULE}' is not finite: {trained}")
    t, b0, b1 = trained
    if t != T or not np.array_equal(trained[1:], np.float32([beta_start, beta_end])):
        raise ConfigError(f"checkpoint was trained for T={t:g}, beta_start={b0:g}, "
                          f"beta_end={b1:g}; the config has T={T}, "
                          f"beta_start={beta_start:g}, beta_end={beta_end:g}")
