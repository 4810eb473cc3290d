import numpy as np
import pytest

from patchscaler.errors import ConfigError, GridShapeError
from patchscaler.tiling import PatchGrid, decompose, recompose


def test_decompose_no_overlap():
    grid_in = np.arange(64, dtype=np.float32).reshape(1, 8, 8)
    patches, grid = decompose(grid_in, 4, 0)
    assert grid.coords == ((0, 0), (0, 4), (4, 0), (4, 4))
    assert np.array_equal(patches[1], grid_in[:, 0:4, 4:8])
    # the patches are views into the grid, not copies
    assert all(np.shares_memory(p, grid_in) for p in patches)


def test_decompose_overlap_stride():
    patches, grid = decompose(np.zeros((1, 8, 8), np.float32), 4, 2)
    tops = sorted({c[0] for c in grid.coords})
    assert tops == [0, 2, 4]
    assert grid.count == 9


def test_decompose_clamped_edge():
    _, grid = decompose(np.zeros((1, 7, 7), np.float32), 4, 0)
    assert grid.coords == ((0, 0), (0, 3), (3, 0), (3, 3))


def test_decompose_errors():
    with pytest.raises(GridShapeError):
        decompose(np.zeros((1, 3, 8), np.float32), 4, 0)
    with pytest.raises(ConfigError):
        decompose(np.zeros((1, 8, 8), np.float32), 4, 4)


def test_roundtrip_identity_with_overlap():
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((3, 32, 32)).astype(np.float32)
    patches, grid = decompose(x, 8, 4)
    out = recompose(patches, grid)
    assert np.max(np.abs(out - x)) <= 1e-6


def test_roundtrip_exact_without_overlap():
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal((1, 16, 16)).astype(np.float32)
    patches, grid = decompose(x, 4, 0)
    assert np.array_equal(recompose(patches, grid), x)


def test_blend_of_constant_patches():
    # two patches overlap on a 2-wide strip with equal weights: (0 + 2) / 2
    base = np.zeros((1, 4, 6), np.float32)
    patches, grid = decompose(base, 4, 2)
    assert grid.count == 2
    filled = [np.zeros((1, 4, 4), np.float32), np.full((1, 4, 4), 2.0, np.float32)]
    out = recompose(filled, grid)
    assert np.allclose(out[:, :, 2:4], 1.0)
    assert np.allclose(out[:, :, :2], 0.0)
    assert np.allclose(out[:, :, 4:], 2.0)


def test_partition_of_unity_weights():
    # each cell's weights 1 / coverage sum to one: constant patches blend
    # back to the same constant
    _, grid = decompose(np.zeros((1, 20, 20), np.float32), 8, 3)
    out = recompose(np.ones((grid.count, 1, 8, 8)), grid)
    assert out.shape == (1, 20, 20)
    assert np.max(np.abs(out - 1.0)) <= 1e-12


def test_random_shapes_roundtrip():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(40):
        v = int(rng.integers(2, 9))
        overlap = int(rng.integers(0, v))
        h = int(rng.integers(v, 40))
        w = int(rng.integers(v, 40))
        x = rng.standard_normal((2, h, w)).astype(np.float32)
        patches, grid = decompose(x, v, overlap)
        assert np.max(np.abs(recompose(patches, grid) - x)) <= 1e-6


def test_recompose_count_mismatch():
    patches, grid = decompose(np.zeros((1, 8, 8), np.float32), 4, 0)
    with pytest.raises(GridShapeError):
        recompose(patches[:-1], grid)
    bad = [np.zeros((1, 3, 3), np.float32)] * grid.count
    with pytest.raises(GridShapeError):
        recompose(bad, grid)


def test_recompose_rejects_uncovered_cells():
    grid = PatchGrid(V=4, coords=((0, 0),), shape=(1, 8, 8))
    with pytest.raises(GridShapeError, match="does not cover"):
        recompose(np.ones((1, 1, 4, 4)), grid)


def _loop_recompose(patches, grid):
    # the blend painted patch by patch, coverage map included
    c, h, w = grid.shape
    V = grid.V
    acc = np.zeros((c, h, w))
    cover = np.zeros((h, w))
    for (top, left), p in zip(grid.coords, patches):
        acc[:, top:top + V, left:left + V] += p
        cover[top:top + V, left:left + V] += 1.0
    return (acc * (1.0 / cover)[None, :, :]).astype(patches.dtype, copy=False)


# decompose clamps the last row anchor of every grid here, and the last
# column anchor of the 512- and 7-wide ones
@pytest.mark.parametrize("shape, V, overlap", [((3, 512, 512), 16, 4), ((2, 37, 23), 8, 3),
                                               ((1, 20, 9), 5, 1), ((1, 7, 7), 4, 0)])
def test_recompose_matches_the_patch_by_patch_blend(shape, V, overlap):
    rng = np.random.Generator(np.random.PCG64(3))
    _, grid = decompose(np.zeros(shape, np.float32), V, overlap)
    assert (shape[1] - V) % (V - overlap)
    patches = rng.standard_normal((grid.count,) + shape[:1] + (V, V)).astype(np.float32)
    assert np.array_equal(recompose(patches, grid), _loop_recompose(patches, grid))


def test_recompose_rejects_a_grid_that_is_not_every_anchor_pair():
    # (0, 0) and (4, 4) alone would blend an outer product that is not their cover
    for coords in (((0, 0), (4, 4)), ((0, 0), (0, 4), (4, 0), (4, 4), (0, 0))):
        grid = PatchGrid(V=4, coords=coords, shape=(1, 8, 8))
        with pytest.raises(GridShapeError, match="every pair"):
            recompose(np.ones((len(coords), 1, 4, 4)), grid)
