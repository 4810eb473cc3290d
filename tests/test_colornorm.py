import numpy as np
import pytest

from patchscaler.colornorm import (haar_forward, haar_inverse,
                                   wavelet_color_normalize)
from patchscaler.errors import GridShapeError


def test_constant_image_single_level():
    img = np.full((1, 4, 4), 3.0)
    low, details = haar_forward(img, 1)
    assert np.allclose(low, 6.0)  # orthonormal scaling doubles constants
    for band in details[0]:
        assert np.allclose(band, 0.0)


def test_roundtrip_identity():
    rng = np.random.Generator(np.random.PCG64(0))
    img = rng.standard_normal((3, 32, 32))
    back = haar_inverse(*haar_forward(img, 3))
    assert np.max(np.abs(back - img)) <= 1e-5


def test_energy_preservation():
    rng = np.random.Generator(np.random.PCG64(1))
    img = rng.standard_normal((1, 16, 16))
    low, details = haar_forward(img, 2)
    energy = np.sum(low ** 2)
    for lh, hl, hh in details:
        energy += np.sum(lh ** 2) + np.sum(hl ** 2) + np.sum(hh ** 2)
    assert energy == pytest.approx(np.sum(img ** 2), abs=1e-4)


def test_indivisible_dims_rejected():
    with pytest.raises(GridShapeError):
        haar_forward(np.zeros((1, 6, 8)), 2)


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
    assert np.max(np.abs(haar_forward(out, 2)[0] - haar_forward(lr, 2)[0])) <= 1e-5


def test_idempotence_and_detail_preservation():
    rng = np.random.Generator(np.random.PCG64(4))
    sr = rng.standard_normal((1, 16, 16))
    lr = rng.standard_normal((1, 16, 16))
    once = wavelet_color_normalize(sr, lr, 2)
    twice = wavelet_color_normalize(once, lr, 2)
    assert np.max(np.abs(twice - once)) <= 1e-5
    _, d_sr = haar_forward(sr, 2)
    _, d_out = haar_forward(once, 2)
    for (a1, b1, c1), (a2, b2, c2) in zip(d_sr, d_out):
        assert np.max(np.abs(a1 - a2)) <= 1e-5
        assert np.max(np.abs(b1 - b2)) <= 1e-5
        assert np.max(np.abs(c1 - c2)) <= 1e-5


def test_shape_mismatch_rejected():
    with pytest.raises(GridShapeError):
        wavelet_color_normalize(np.zeros((1, 8, 8)), np.zeros((1, 8, 4)), 1)
