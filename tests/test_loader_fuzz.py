"""File loaders given any byte string return a valid object or raise FormatError;
the config loader raises ConfigError."""
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchscaler.checkpoint import load_params
from patchscaler.errors import ConfigError, FormatError
from patchscaler.gridio import load_grid
from patchscaler.pipeline import PipelineConfig, parse_config_file
from patchscaler.rtm import TextureMemory, load_memory


def _load(loader, raw: bytes, error=FormatError):
    """loader's result on a file holding raw, or None if it raised error."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f"
        path.write_bytes(raw)
        try:
            return loader(path)
        except error:
            return None


def _with_payload(header: bytes, nbytes: int):
    # the exact declared payload, or a few bytes short or long
    sizes = st.integers(-3, 3).map(lambda k: max(0, nbytes + k))
    payloads = sizes.flatmap(lambda n: st.binary(min_size=n, max_size=n))
    return payloads.map(lambda payload: header + payload)


_dim = st.one_of(st.integers(-2, 3), st.integers(2**31, 2**63),
                 st.sampled_from(["a", "1.5", "0x3", "-0", "+2"]))
_grid_headers = st.lists(_dim, max_size=5).map(
    lambda dims: ("PSG1 " + " ".join(map(str, dims)) + "\n").encode())
_small = st.integers(1, 3)
grid_files = st.one_of(
    st.binary(max_size=64),
    st.tuples(_grid_headers, st.binary(max_size=64)).map(lambda hp: hp[0] + hp[1]),
    st.tuples(_small, _small, _small).flatmap(
        lambda d: _with_payload(("PSG1 %d %d %d\n" % d).encode(), 4 * d[0] * d[1] * d[2])),
)

_size = st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1))
_seed = st.one_of(st.integers(0, 3), st.integers(0, 2**64 - 1))
# RTM1, the format before the extractor seed was stored, must be refused
memory_files = st.one_of(
    st.binary(max_size=64),
    st.tuples(st.sampled_from([b"RTM1", b"RTM2"]),
              st.tuples(_size, _size, _size, _size, _seed), st.binary(max_size=64))
      .map(lambda msp: msp[0] + struct.pack("<4IQ", *msp[1]) + msp[2]),
    # a header cut to 0-23 of its 24 bytes
    st.binary(max_size=23).map(lambda h: b"RTM2" + h),
    st.tuples(_small, _small, _small, _small, _seed).flatmap(
        lambda s: _with_payload(b"RTM2" + struct.pack("<4IQ", *s),
                                4 * s[0] * (s[1] + s[2] * s[3] * s[3]))),
)


@settings(max_examples=300, deadline=None)
@given(grid_files)
def test_load_grid_any_bytes(raw):
    grid = _load(load_grid, raw)
    if grid is not None:
        assert grid.ndim == 3 and grid.dtype == np.float32 and grid.size >= 1


@settings(max_examples=300, deadline=None)
@given(memory_files)
@example(b"RTM2" + bytes(23))
def test_load_memory_any_bytes(raw):
    mem = _load(load_memory, raw)
    if mem is not None:
        assert raw[:4] == b"RTM2"
        assert isinstance(mem, TextureMemory) and mem.count >= 1
        assert mem.values.shape[0] == mem.keys.shape[0]
        assert mem.extractor_seed == struct.unpack("<Q", raw[20:28])[0]


_names = st.one_of(st.binary(max_size=6), st.text(max_size=6).map(str.encode))
_shapes = st.lists(st.one_of(st.integers(0, 3), st.integers(0, 2**32 - 1)), max_size=4)
_sections = st.tuples(_names, _shapes, st.binary(max_size=48)).map(
    lambda s: struct.pack("<H", len(s[0])) + s[0] + struct.pack(f"<B{len(s[1])}I", len(s[1]), *s[1])
    + s[2])
checkpoint_files = st.one_of(
    st.binary(max_size=64),
    # version 1 and its neighbours, which must be refused
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.lists(_sections, max_size=3)).map(
        lambda vcs: b"PSCK" + struct.pack("<II", *vcs[:2]) + b"".join(vcs[2])),
    st.tuples(_small, _small).flatmap(
        lambda d: _with_payload(b"PSCK" + struct.pack("<IIH", 1, 1, 1) + b"w"
                                + struct.pack("<B2I", 2, *d), 4 * d[0] * d[1])),
)


@settings(max_examples=300, deadline=None)
@given(checkpoint_files)
# an unknown version; a section without elements whose other sides overflow numpy
@example(b"PSCK" + struct.pack("<II", 2, 0))
@example(b"PSCK" + struct.pack("<IIH", 1, 1, 1) + b"w"
         + struct.pack("<B3I", 3, 0, 2**32 - 1, 2**32 - 1))
# a section name that is not UTF-8
@example(b"PSCK" + struct.pack("<IIH", 1, 1, 1) + b"\xff")
# a float32 signalling NaN, which loads as a quiet NaN without a warning
@example(b"PSCK" + struct.pack("<IIH", 1, 1, 1) + b"w" + struct.pack("<BI", 1, 1)
         + bytes.fromhex("0100807f"))
def test_load_params_any_bytes(raw):
    params = _load(load_params, raw)
    if params is not None:
        assert all(isinstance(name, str) and arr.dtype == np.float64
                   for name, arr in params.items())


# values stay short (at most 6 characters of free text, integers up to
# 1100) so a fuzzed T or step count builds a small schedule
_values = st.one_of(
    st.integers(-2, 1100).map(str),
    st.floats().map(str),
    st.lists(st.integers(-2, 1100), min_size=2, max_size=4).map(
        lambda v: ",".join(map(str, v))),
    st.text(max_size=6),
)
_config_lines = st.tuples(
    st.sampled_from(sorted(PipelineConfig.__dataclass_fields__) + ["bogus"]),
    st.sampled_from([" ", "=", " = "]), _values, st.sampled_from(["", " # note"]),
).map("".join)
config_files = st.one_of(
    st.binary(max_size=64),
    st.lists(_config_lines, max_size=4).map(lambda lines: "\n".join(lines).encode()),
    st.tuples(_config_lines, st.binary(max_size=16)).map(
        lambda lb: lb[0].encode() + b"\n" + lb[1]),
)


@settings(max_examples=300, deadline=None)
@given(config_files)
# not UTF-8 text
@example(b"\xffpatch 8\n")
def test_parse_config_file_any_bytes(raw):
    fields = _load(parse_config_file, raw, ConfigError)
    if fields is not None:
        try:
            PipelineConfig(**fields)
        except ConfigError:
            pass
