import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchscaler.colornorm import wavelet_color_normalize
from patchscaler.errors import GridShapeError


def _blocks(x, levels):
    c, h, w = x.shape
    b = 1 << levels
    return x.reshape(c, h // b, b, w // b, b)


def _block_means(x, levels):
    return _blocks(x, levels).mean(axis=(2, 4), dtype=np.float64)


def _block_spread(x, levels):
    """Largest deviation of x from its value at the corner of each block."""
    blocks = _blocks(x, levels)
    return np.max(np.abs(blocks - blocks[:, :, :1, :, :1]))


@st.composite
def _pairs(draw):
    c = draw(st.sampled_from([1, 3]))
    levels = draw(st.integers(1, 3))
    b = 1 << levels
    h = b * draw(st.integers(1, 4))
    w = b * draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sr = rng.standard_normal((c, h, w)) * draw(st.sampled_from([1.0, 10.0]))
    lr_up = (rng.standard_normal((c, h, w)) + 0.5).astype(np.float32)
    return sr, lr_up, levels


@settings(max_examples=200, deadline=None)
@given(_pairs())
def test_takes_reference_block_means_and_keeps_detail(pair):
    # the two properties together are the Haar low-band swap: the output's
    # level-L low band is lr_up's, and its detail bands are sr's, since the
    # difference from sr is constant on every 2^L block
    sr, lr_up, levels = pair
    out = wavelet_color_normalize(sr, lr_up, levels)
    assert out.dtype == sr.dtype and out.shape == sr.shape
    assert np.max(np.abs(_block_means(out, levels) - _block_means(lr_up, levels))) <= 1e-12
    assert _block_spread(out - sr, levels) <= 1e-12


def test_indivisible_dims_rejected():
    with pytest.raises(GridShapeError):
        wavelet_color_normalize(np.zeros((1, 6, 8)), np.zeros((1, 6, 8)), 2)


def test_normalize_constants():
    sr = np.full((1, 8, 8), 7.0)
    lr = np.full((1, 8, 8), 5.0)
    out = wavelet_color_normalize(sr, lr, 2)
    assert np.allclose(out, 5.0, atol=1e-6)


def test_normalize_noop_when_reference_equal():
    rng = np.random.Generator(np.random.PCG64(2))
    sr = rng.standard_normal((1, 16, 16))
    out = wavelet_color_normalize(sr, sr.copy(), 2)
    assert np.max(np.abs(out - sr)) <= 1e-5


def test_normalized_low_band_matches_reference():
    rng = np.random.Generator(np.random.PCG64(3))
    sr = rng.standard_normal((2, 16, 16))
    lr = rng.standard_normal((2, 16, 16))
    out = wavelet_color_normalize(sr, lr, 2)
    assert np.max(np.abs(_block_means(out, 2) - _block_means(lr, 2))) <= 1e-5


def test_idempotence_and_detail_preservation():
    rng = np.random.Generator(np.random.PCG64(4))
    sr = rng.standard_normal((1, 16, 16))
    lr = rng.standard_normal((1, 16, 16))
    once = wavelet_color_normalize(sr, lr, 2)
    twice = wavelet_color_normalize(once, lr, 2)
    assert np.max(np.abs(twice - once)) <= 1e-5
    assert _block_spread(once - sr, 2) <= 1e-5


def test_shape_mismatch_rejected():
    with pytest.raises(GridShapeError):
        wavelet_color_normalize(np.zeros((1, 8, 8)), np.zeros((1, 8, 4)), 1)
