import numpy as np
import pytest

from patchscaler.errors import (ConfigError, DegenerateQueryError,
                                DimensionMismatchError, MagicMismatchError,
                                NumericError, TruncatedFileError)
from patchscaler.rtm import (TextureExtractor, TextureMemory, build_memory,
                             extract_query, farthest_point_sample,
                             load_memory, retrieve_topk, save_memory)


def _identity_extractor(patch):
    return patch.reshape(-1)


def test_extract_query_normalizes():
    q = extract_query(_identity_extractor, np.array([[[3.0]], [[4.0]]]))
    assert np.allclose(q, [0.6, 0.8])
    rng = np.random.Generator(np.random.PCG64(0))
    ex = TextureExtractor((1, 4, 4), seed=1)
    q = extract_query(ex, rng.standard_normal((1, 4, 4)).astype(np.float32))
    assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-5)


def test_extract_query_degenerate():
    with pytest.raises(DegenerateQueryError):
        extract_query(_identity_extractor, np.zeros((1, 2, 2)))
    ex = TextureExtractor((1, 4, 4), seed=1)
    with pytest.raises(DegenerateQueryError):
        extract_query(ex, np.zeros((1, 4, 4), np.float32))


def test_extract_query_not_finite():
    # a NaN cell makes the extractor's feature NaN; an extractor may also
    # return an inf feature for a finite patch
    nan_cell = np.ones((1, 4, 4), np.float32)
    nan_cell[0, 1, 2] = np.nan
    for t, patch in ((TextureExtractor((1, 4, 4), seed=1), nan_cell),
                     (lambda p: np.full(4, np.inf), np.ones((1, 2, 2)))):
        with pytest.raises(NumericError, match="feature"):
            extract_query(t, patch)


def test_extractor_deterministic():
    ex1 = TextureExtractor((1, 4, 4), seed=9)
    ex2 = TextureExtractor((1, 4, 4), seed=9)
    p = np.random.default_rng(0).standard_normal((1, 4, 4)).astype(np.float32)
    assert np.array_equal(ex1(p), ex2(p))


def _fps_oracle(keys, m):
    pts = keys.astype(np.float64)
    chosen = [0]
    for _ in range(m - 1):
        best_idx, best_d = None, -1.0
        for i in range(len(pts)):
            d = min(np.linalg.norm(pts[i] - pts[j]) for j in chosen)
            if d > best_d:
                best_d, best_idx = d, i
        chosen.append(best_idx)
    return chosen


def test_fps_line_example():
    keys = np.array([[0.0], [1.0], [10.0]])
    assert list(farthest_point_sample(keys, 2)) == [0, 2]


def test_fps_full_selection():
    keys = np.random.default_rng(1).standard_normal((6, 3))
    assert sorted(farthest_point_sample(keys, 6)) == list(range(6))


def test_fps_matches_greedy_oracle():
    rng = np.random.Generator(np.random.PCG64(2))
    keys = rng.standard_normal((64, 8))
    got = list(farthest_point_sample(keys, 16))
    assert got == _fps_oracle(keys, 16)


def test_fps_tie_break_lowest_index():
    # duplicated points force exact distance ties
    keys = np.array([[0.0], [5.0], [5.0], [5.0]])
    got = list(farthest_point_sample(keys, 2))
    assert got == [0, 1]


def test_fps_errors():
    keys = np.zeros((3, 2))
    with pytest.raises(ConfigError):
        farthest_point_sample(keys, 4)
    with pytest.raises(ConfigError):
        farthest_point_sample(keys, 0)


def test_build_memory_small_and_deterministic():
    rng = np.random.Generator(np.random.PCG64(3))
    ex = TextureExtractor((1, 4, 4), seed=0)
    patches = [rng.standard_normal((1, 4, 4)).astype(np.float32) for _ in range(4)]
    mem1 = build_memory(patches, ex, 4)
    mem2 = build_memory(patches, ex, 4)
    assert mem1.count == 4
    assert np.allclose(np.linalg.norm(mem1.keys, axis=1), 1.0, atol=1e-5)
    assert np.array_equal(mem1.keys, mem2.keys)
    assert np.array_equal(mem1.values, mem2.values)


def test_build_memory_refuses_a_non_finite_patch():
    # an inf cell saturates the extractor's tanh to a finite key, so only the
    # value shows it; a saved memory holding it would not load
    patches = list(np.random.Generator(np.random.PCG64(7)).standard_normal((4, 1, 4, 4)))
    patches[2][0, 1, 1] = np.inf
    with pytest.raises(NumericError, match="memory patch"):
        build_memory(patches, TextureExtractor((1, 4, 4), seed=0), 4)


def test_memory_records_its_extractor(tmp_path):
    # the keys are only comparable with queries from the same feature map,
    # so the memory carries the extractor's seed through save and load
    rng = np.random.Generator(np.random.PCG64(4))
    ex = TextureExtractor((1, 4, 4), seed=7)
    patches = [rng.standard_normal((1, 4, 4)).astype(np.float32) for _ in range(5)]
    mem = build_memory(patches, ex, 3)
    assert mem.extractor_seed == 7
    path = tmp_path / "mem.rtm"
    save_memory(mem, path)
    back = load_memory(path)
    assert back.extractor_seed == 7
    q = patches[2]
    assert np.array_equal(back.extractor()(q), ex(q))
    assert path.read_bytes()[:4] == b"RTM2"
    path.write_bytes(b"RTM1" + path.read_bytes()[4:])
    with pytest.raises(MagicMismatchError):
        load_memory(path)
    with pytest.raises(ConfigError):
        TextureMemory(keys=mem.keys, values=mem.values, extractor_seed=-1)


def test_retrieve_topk_basis_examples():
    values = np.zeros((2, 1, 1, 1), np.float32)
    mem = TextureMemory(keys=np.eye(2, dtype=np.float32), values=values)
    q = np.array([1.0, 0.0])
    res = retrieve_topk(mem, np.zeros((1,)), lambda p: q, 1)
    assert res.indices[0] == 0 and res.similarities[0] == pytest.approx(1.0)

    res = retrieve_topk(mem, np.zeros((1,)), lambda p: np.array([0.6, 0.8]), 2)
    assert list(res.indices) == [1, 0]
    assert np.allclose(res.similarities, [0.8, 0.6])


def test_retrieve_topk_matches_sort_oracle():
    rng = np.random.Generator(np.random.PCG64(4))
    keys = rng.standard_normal((200, 16)).astype(np.float32)
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    mem = TextureMemory(keys=keys, values=np.zeros((200, 1, 2, 2), np.float32))
    q = rng.standard_normal(16)
    res = retrieve_topk(mem, np.zeros(1), lambda p: q, 7)
    sims = keys.astype(np.float64) @ (q / np.linalg.norm(q))
    order = sorted(range(200), key=lambda i: (-sims[i], i))[:7]
    assert list(res.indices) == order
    assert np.allclose(res.similarities, sims[order], atol=1e-6)
    assert np.all(np.diff(res.similarities) <= 1e-12)


def test_memory_roundtrip_bit_identical(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    keys = rng.standard_normal((10, 8)).astype(np.float32)
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    values = rng.standard_normal((10, 2, 4, 4)).astype(np.float32)
    mem = TextureMemory(keys=keys, values=values)
    path = tmp_path / "mem.rtm"
    save_memory(mem, path)
    back = load_memory(path)
    assert np.array_equal(back.keys, mem.keys)
    assert np.array_equal(back.values, mem.values)


def test_memory_corruption_errors(tmp_path):
    rng = np.random.Generator(np.random.PCG64(6))
    keys = rng.standard_normal((4, 4)).astype(np.float32)
    mem = TextureMemory(keys=keys, values=np.zeros((4, 1, 2, 2), np.float32))
    path = tmp_path / "mem.rtm"
    save_memory(mem, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.rtm"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(MagicMismatchError):
        load_memory(bad_magic)

    truncated = tmp_path / "trunc.rtm"
    truncated.write_bytes(raw[:len(raw) - 10])
    with pytest.raises(TruncatedFileError):
        load_memory(truncated)

    padded = tmp_path / "padded.rtm"
    padded.write_bytes(raw + b"\x00")
    with pytest.raises(DimensionMismatchError):
        load_memory(padded)
