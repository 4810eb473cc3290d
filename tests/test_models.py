import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

from patchscaler import models
from patchscaler.checkpoint import load_params, restore_into, save_params
from patchscaler.confidence import CONF_FLOOR
from patchscaler.errors import (ConfigError, DimensionMismatchError,
                                GridShapeError, MagicMismatchError,
                                NumericError, TruncatedFileError)
from patchscaler.models import (GaussianOracleDenoiser, GaussianOracleStats,
                                GlobalRestorer, PatchDiT, _attn_forward,
                                _conv3x3_forward, make_dit_gaussian_objective,
                                make_grm_objective, time_embed, train_toy)
from patchscaler.rtm import RetrievalResult
from patchscaler.schedule import build_linear_schedule, forward_sample

from conftest import forward64


def _prompt(rng, k, channels, patch):
    priors = rng.standard_normal((k, channels, patch, patch)).astype(np.float32)
    sims = np.sort(rng.uniform(0.1, 1.0, k))[::-1].astype(np.float32)
    return RetrievalResult(indices=np.arange(k), similarities=sims,
                           priors=priors)


def test_time_embed_values():
    e = time_embed(0, 8)
    assert np.allclose(e[:4], 0.0)
    assert np.allclose(e[4:], 1.0)
    e = time_embed(3, 4)
    assert e[0] == pytest.approx(np.sin(3.0))
    assert e[1] == pytest.approx(np.sin(3.0 / 100.0))
    assert e[2] == pytest.approx(np.cos(3.0))
    with pytest.raises(ConfigError):
        time_embed(1, 5)


def test_time_embed_of_steps_stacks_the_scalar_embeddings():
    # training embeds one step per patch; each row must be the bits of the
    # one-step embedding
    steps = np.array([1, 2, 17, 300, 499, 500, 999, 1000])
    got = time_embed(steps, 64)
    assert got.shape == (8, 64)
    assert np.array_equal(got, np.stack([time_embed(int(t), 64) for t in steps]))
    assert np.array_equal(time_embed(steps.reshape(2, 4), 64), got.reshape(2, 4, 64))


def test_dit_shapes_and_determinism():
    dit = PatchDiT(channels=2, patch=4, width=16, depth=2, heads=2, seed=1)
    rng = np.random.Generator(np.random.PCG64(0))
    x = rng.standard_normal((2, 4, 4)).astype(np.float32)
    out1 = dit(x[None], 37)[0]
    out2 = dit(x[None], 37)[0]
    assert out1.shape == (2, 4, 4) and out1.dtype == np.float32
    assert np.array_equal(out1, out2)
    with pytest.raises(GridShapeError):
        dit(np.zeros((2, 4, 5), np.float32), 1)
    with pytest.raises(ConfigError):
        PatchDiT(width=10, heads=4)


def test_dit_batch_matches_per_patch_forward(dit_f32_tol):
    dit = PatchDiT(channels=1, patch=4, width=16, depth=2, heads=2, seed=7)
    rng = np.random.Generator(np.random.PCG64(11))
    x = rng.standard_normal((3, 1, 4, 4))
    prompts = [_prompt(rng, 3, 1, 4), None, _prompt(rng, 3, 1, 4)]
    ref = np.stack([forward64(dit, xi[None], 55, [p])[0] for xi, p in zip(x, prompts)])
    assert np.max(np.abs(dit(x, 55, prompts) - ref)) <= dit_f32_tol
    ref = np.stack([forward64(dit, xi[None], 55)[0] for xi in x])
    assert np.max(np.abs(dit(x, 55) - ref)) <= dit_f32_tol
    with pytest.raises(ConfigError):
        dit(x, 55, prompts[:2])


def test_dit_float32_inference_within_bound_of_float64_forward(dit_f32_tol):
    # the benchmark's DiT: 256 tokens, width 64, 4 heads; measured max abs
    # difference 4.9e-8 (numpy 2.4.6, OpenBLAS 0.3.31, x86-64)
    dit = PatchDiT(channels=1, patch=16, width=64, depth=2, heads=4, seed=0)
    rng = np.random.Generator(np.random.PCG64(14))
    x = rng.standard_normal((6, 1, 16, 16)).astype(np.float32)
    prompts = [_prompt(rng, 4, 1, 16), None, _prompt(rng, 4, 1, 16), None,
               _prompt(rng, 4, 1, 16), _prompt(rng, 4, 1, 16)]
    worst = 0.0
    for t in (1, 500, 1000):
        ref = np.stack([forward64(dit, xi[None], t, [p])[0] for xi, p in zip(x, prompts)])
        worst = max(worst, float(np.max(np.abs(dit(x, t, prompts) - ref))))
    assert worst <= dit_f32_tol


def _record_attention(monkeypatch):
    """Replace models._attn_forward by a wrapper that logs each call."""
    calls = []

    def spy(q_in, kv_in, p, pre, heads, want_cache=False):
        out = _attn_forward(q_in, kv_in, p, pre, heads, want_cache)
        calls.append((pre, q_in.shape, kv_in.shape,
                      {q_in.dtype, kv_in.dtype, p[pre + ".wq"].dtype, out[0].dtype}))
        return out

    monkeypatch.setattr(models, "_attn_forward", spy)
    return calls


def test_dit_chunks_match_per_patch_calls(monkeypatch):
    # 144 tokens and 4 heads: items of (1 << 18) // (4 * 144 * 144) = 3
    # patches, and inference chunks of 4 items per usable CPU, here 2: 30
    # patches make chunks of 24 and 6.  Two K = 3 prompts and unprompted
    # patches fall on both sides of the chunk boundary; the output is the
    # per-patch calls' bit for bit
    monkeypatch.setattr(models, "_WORKERS", 2)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(1))
    dit = PatchDiT(channels=1, patch=12, width=16, depth=1, heads=4, seed=8)
    rng = np.random.Generator(np.random.PCG64(15))
    x = rng.standard_normal((30, 1, 12, 12)).astype(np.float32)
    ka, kb = _prompt(rng, 3, 1, 12), _prompt(rng, 3, 1, 12)
    prompts = [ka, None, kb, kb, ka, kb, ka, None, ka, kb] * 3
    calls = _record_attention(monkeypatch)
    got = dit(x, 300, prompts)
    sa = [q[0] for pre, q, _, _ in calls if pre.endswith(".sa")]
    ca = [(q[0], kv[1]) for pre, q, kv, _ in calls if pre.endswith(".ca")]
    assert sa == [24, 6]
    # cross-attention runs once in each chunk, on the prompted patches only
    assert ca == [(19, 3), (5, 3)]
    one = np.concatenate([dit(x[i:i + 1], 300, prompts[i:i + 1]) for i in range(30)])
    assert np.array_equal(got, one)
    models._pool.shutdown()


def test_attention_softmax_over_keys_is_stable():
    # scores near +-1e3 overflow exp unless the max over keys is taken out
    # first, and a max or sum over the query axis gives other weights; both
    # kernels must match a query-major float64 softmax
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=5)
    rng = np.random.Generator(np.random.PCG64(4))
    p = {k: a.astype(np.float32) for k, a in dit.params.items()}
    p["b0.sa.wq"] *= 150.0  # peak |score| 982; float32 error 2.6e-6 relative
    p64 = {k: a.astype(np.float64) for k, a in p.items()}
    tokens = rng.standard_normal((3, 20, 16)).astype(np.float32)
    x = tokens.astype(np.float64)
    split = [(x @ p64["b0.sa." + w]).reshape(3, 20, 2, 8).swapaxes(1, 2)
             for w in ("wq", "wk", "wv")]
    scores = split[0] @ split[1].swapaxes(-1, -2) / np.sqrt(8)
    assert 5e2 < np.max(np.abs(scores)) < 2e3
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = (weights @ split[2]).swapaxes(1, 2).reshape(3, 20, 16)
    ref = merged @ p64["b0.sa.wo"] + p64["b0.sa.bo"]
    got64, cache = _attn_forward(x, x, p64, "b0.sa", dit.heads, want_cache=True)
    got, _ = _attn_forward(tokens, tokens, p, "b0.sa", dit.heads)
    assert got.dtype == np.float32 and np.all(np.isfinite(got))
    assert np.max(np.abs(got64 - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(got - got64)) <= 1e-5 * np.max(np.abs(got64))
    # the cache holds the unnormalised weights and their sums over keys
    weights = cache[5] / cache[6]
    assert weights.shape == (3, 2, 20, 20)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) <= 1e-12


def _textbook_attention(q_in, kv_in, p, pre, heads):
    """Query-major natural-exp softmax, normalised before the product with v;
    also returns the peak |score|."""
    def split(a):
        return a.reshape(*a.shape[:-1], heads, -1).swapaxes(-3, -2)

    qh, kh, vh = (split(x @ p[pre + w])
                  for x, w in ((q_in, ".wq"), (kv_in, ".wk"), (kv_in, ".wv")))
    scores = qh @ kh.swapaxes(-1, -2) / np.sqrt(qh.shape[-1])
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    merged = (weights @ vh).swapaxes(-3, -2).reshape(q_in.shape)
    return merged @ p[pre + ".wo"] + p[pre + ".bo"], np.max(np.abs(scores))


@pytest.mark.parametrize("pre, lead, m, q_gain, peak", [
    ("b0.sa", (3,), 20, 1.0, (0, 50)),
    ("b0.ca", (2, 3), 5, 1.0, (0, 50)),
    # near one-hot weights: most exp2 terms underflow past the max shift
    ("b0.sa", (2, 3), 20, 150.0, (200, 2e3)),
    ("b0.ca", (4,), 5, 150.0, (200, 2e3)),
])
def test_float64_attention_matches_a_textbook_softmax(pre, lead, m, q_gain, peak):
    # base-2 exponent with log2(e) folded into the query scale, and the
    # division by the sums on the product with v, not on the weights,
    # change only rounding
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=6)
    p = dict(dit.params)
    p[pre + ".wq"] = p[pre + ".wq"] * q_gain
    rng = np.random.Generator(np.random.PCG64(17))
    q_in = rng.standard_normal((*lead, 20, 16))
    kv_in = q_in if pre.endswith(".sa") else rng.standard_normal((*lead, m, 16))
    ref, top = _textbook_attention(q_in, kv_in, p, pre, dit.heads)
    assert peak[0] < top < peak[1]
    got, _ = _attn_forward(q_in, kv_in, p, pre, dit.heads)
    assert got.shape == ref.shape and got.dtype == np.float64
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_dit_inference_stays_float32(monkeypatch):
    # under NEP 50 a float64 scalar or array (time embedding, similarities,
    # a numpy scale) would promote the float32 tokens; float64 input too
    dit = PatchDiT(channels=1, patch=4, width=16, depth=2, heads=2, seed=9)
    rng = np.random.Generator(np.random.PCG64(16))
    x = rng.standard_normal((3, 1, 4, 4))
    calls = _record_attention(monkeypatch)
    out = dit(x, 77, [_prompt(rng, 3, 1, 4), None, _prompt(rng, 3, 1, 4)])
    assert out.dtype == np.float64  # the caller's dtype
    assert {pre[-2:] for pre, *_ in calls} == {"sa", "ca"}
    assert all(dtypes == {np.dtype(np.float32)} for *_, dtypes in calls)


def test_dit_zero_output_projection():
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=0)
    dit.params["out.w"][:] = 0.0
    dit.params["out.b"][:] = 0.0
    x = np.ones((1, 4, 4), np.float32)
    assert np.array_equal(dit(x[None], 10)[0], np.zeros((1, 4, 4), np.float32))


def test_cross_attention_zero_time_scale_is_identity():
    # zero time-scale vectors cancel the cross-attention update, so the
    # prompt changes nothing in either the float64 or the float32 path
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=2)
    dit.params["b0.ca.ts.w"][:] = 0.0
    dit.params["b0.ca.ts.b"][:] = 0.0
    rng = np.random.Generator(np.random.PCG64(1))
    x = rng.standard_normal((2, 1, 4, 4))
    prompt = _prompt(rng, 3, 1, 4)
    assert np.array_equal(forward64(dit, x[:1], 5, [prompt]), forward64(dit, x[:1], 5))
    assert np.array_equal(dit(x, 5, [prompt, prompt]), dit(x, 5))


def test_attention_single_token_closed_form():
    # one prompt token: softmax over a single key is exactly 1, so the
    # attended value is the projected token regardless of the query; the
    # batch of two patches checks the leading dims
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=3)
    rng = np.random.Generator(np.random.PCG64(2))
    tokens = rng.standard_normal((2, 5, 16))
    prompts = [_prompt(rng, 1, 1, 4), _prompt(rng, 1, 1, 4)]
    p = dit.params
    pt = np.stack([(pr.priors.astype(np.float64).reshape(1, -1) @ p["prompt.w"]
                    + p["prompt.b"]) * pr.similarities.astype(np.float64)[:, None]
                   for pr in prompts])
    for pr, ref in zip(prompts, pt):
        assert np.max(np.abs(dit._encode_prompt(pr, p)[0] - ref)) <= 1e-12
    attended = (pt @ p["b0.ca.wv"]) @ p["b0.ca.wo"] + p["b0.ca.bo"]
    got, _ = _attn_forward(tokens, pt, p, "b0.ca", dit.heads)
    assert got.shape == tokens.shape
    assert np.max(np.abs(got - attended)) <= 1e-10


def test_cross_attention_prompt_permutation_invariance(dit_f32_tol):
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=4)
    rng = np.random.Generator(np.random.PCG64(3))
    x = rng.standard_normal((1, 1, 4, 4))
    prompt = _prompt(rng, 5, 1, 4)
    perm = np.array([3, 0, 4, 1, 2])
    shuffled = RetrievalResult(indices=prompt.indices[perm],
                               similarities=prompt.similarities[perm],
                               priors=prompt.priors[perm])
    a, b = forward64(dit, x, 2, [prompt]), forward64(dit, x, 2, [shuffled])
    assert np.max(np.abs(a - b)) <= 1e-10
    a, b = dit(x, 2, [prompt]), dit(x, 2, [shuffled])
    assert np.max(np.abs(a - b)) <= dit_f32_tol


def _fd_check(loss_fn, params, entries, grads, h=1e-5):
    worst = 0.0
    for name, idx in entries:
        arr = params[name]
        orig = arr[idx]
        arr[idx] = orig + h
        lp = loss_fn()
        arr[idx] = orig - h
        lm = loss_fn()
        arr[idx] = orig
        fd = (lp - lm) / (2 * h)
        a = grads[name][idx]
        worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
    return worst


def test_dit_gradients_spot_check():
    dit = PatchDiT(channels=1, patch=4, width=8, depth=2, heads=2, seed=5)
    rng = np.random.Generator(np.random.PCG64(4))
    x_t = rng.standard_normal((1, 4, 4))
    target = rng.standard_normal((1, 4, 4))
    prompt = _prompt(rng, 3, 1, 4)
    _, grads = dit.loss_and_grads(x_t[None], 123, target[None], [prompt])
    entries = [("embed.w", (0, 3)), ("time_in.w", (2, 1)), ("prompt.w", (5, 2)),
               ("b0.sa.wq", (1, 4)), ("b0.ca.wk", (0, 0)),
               ("b0.ca.ts.w", (3, 3)), ("b1.ff.w1", (2, 7)),
               ("b1.ca.wo", (6, 1)), ("out.w", (4, 0)), ("out.b", (0,))]
    worst = _fd_check(
        lambda: dit.loss_and_grads(x_t[None], 123, target[None], [prompt])[0],
        dit.params, entries, grads)
    assert worst <= 1e-4


def test_dit_batched_loss_and_grads_is_the_mean_of_single_patch_calls():
    # 144 tokens and 4 heads: chunks of (1 << 18) // (4 * 144 * 144) = 3
    # patches, so 7 patches make chunks of 3, 3 and 1, the second without a
    # prompt; each patch has its own step
    dit = PatchDiT(channels=1, patch=12, width=16, depth=2, heads=4, seed=11)
    rng = np.random.Generator(np.random.PCG64(18))
    x_t, target = rng.standard_normal((2, 7, 1, 12, 12))
    t = rng.integers(1, 1001, 7)
    ka, kb = _prompt(rng, 3, 1, 12), _prompt(rng, 3, 1, 12)
    prompts = [ka, None, kb, None, None, None, kb]
    loss, grads = dit.loss_and_grads(x_t, t, target, prompts)
    one = [dit.loss_and_grads(x_t[i:i + 1], t[i], target[i:i + 1], prompts[i:i + 1])
           for i in range(7)]
    assert abs(loss - np.mean([l for l, _ in one])) <= 1e-12 * loss
    assert set(grads) == set(dit.params)
    for k, g in grads.items():
        ref = np.mean([gi[k] for _, gi in one], axis=0)
        assert np.max(np.abs(ref)) > 0, k
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref)), k


def test_dit_training_step_memory_does_not_grow_with_batch(schedule1000):
    # at patch 16 the DiT's chunks hold one patch, and the objective runs
    # each chunk's forward and backward before the next: a step holds one
    # chunk's caches (about 13 MB here) whatever the batch; one whole-batch
    # forward would hold 8x more at batch 64 than at batch 8
    def peak(batch):
        dit = PatchDiT(channels=1, patch=16, width=32, depth=2, heads=4, seed=0)
        obj = make_dit_gaussian_objective(dit, schedule1000,
                                          GaussianOracleStats(0.0, 1.0), batch=batch)
        tracemalloc.start()
        try:
            obj(np.random.Generator(np.random.PCG64(0)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(64) <= 1.25 * peak(8)


def _conv3x3_reference(x, w, b):
    # one im2col matrix over the whole input, then one GEMM
    c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((h, wd, c, 3, 3))
    for i in range(h):
        for j in range(wd):
            cols[i, j] = xp[:, i:i + 3, j:j + 3]
    y = cols.reshape(h * wd, c * 9) @ w.reshape(len(w), -1).T + b
    return y.reshape(h, wd, len(w)).transpose(2, 0, 1)


# with one worker, bands of 4096 // width rows (more workers split them
# further): 40 rows for width 100 and 13 for width 300, neither dividing the
# height; width 48 fits a 48-row input in one band;
# width 4100 > 4096 gives one-row bands; 3 channels at width 150 end in a
# 300-cell band, which the (f, 9c) @ (9c, cells) GEMM gets wrong in the bits.
# The halo: one row, where a band's first row is also its last; one and two
# columns, where the left and right halo columns meet; a final band of one
# row after full ones (81 = 2 * 40 + 1 at width 100, 14 = 13 + 1 at 300)
@pytest.mark.parametrize("shape", [(1, 97, 100), (16, 50, 300), (1, 48, 48),
                                   (16, 48, 48), (1, 2, 4100), (3, 29, 150),
                                   (1, 1, 100), (1, 100, 1), (2, 60, 2),
                                   (1, 81, 100), (16, 14, 300)])
def test_banded_conv_matches_full_im2col(shape):
    rng = np.random.Generator(np.random.PCG64(12))
    x = rng.standard_normal(shape)
    w = rng.standard_normal((16, shape[0], 3, 3))
    b = rng.standard_normal(16)
    y = _conv3x3_forward(x, w, b)
    assert y.shape == (16,) + shape[1:] and y.flags.c_contiguous
    assert np.array_equal(y, _conv3x3_reference(x, w, b))


def _channels_last_sink(out):
    # a band sink that copies each band into a channels-last (h, w, f) array
    def sink(r, o):
        out[r:r + len(o)] = o
    return sink


def test_conv_writes_every_cell_of_a_channels_last_out():
    # the bands reach a sink channels-last: every cell is written (no NaN
    # survives) with the bits of the one-GEMM reference
    rng = np.random.Generator(np.random.PCG64(13))
    x = rng.standard_normal((16, 29, 150))
    w = rng.standard_normal((16, 16, 3, 3))
    b = rng.standard_normal(16)
    out = np.full((29, 150, 16), np.nan)
    assert _conv3x3_forward(x, w, b, sink=_channels_last_sink(out)) is None
    assert np.array_equal(out.transpose(2, 0, 1), _conv3x3_reference(x, w, b))


@pytest.fixture(params=[1, 2, 3, 4])
def pool_workers(request, monkeypatch):
    # the usable CPU count, with a pool of its own
    monkeypatch.setattr(models, "_WORKERS", request.param)
    monkeypatch.setattr(models, "_MIN_THREADED_CELLS", 0)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(max(1, request.param - 1)))
    yield request.param
    models._pool.shutdown()


def _serial_conv(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(models, "_WORKERS", 1)
        return _conv3x3_forward(*args, **kwargs)


# the two GRM golden inputs; a 512x512 GRM hidden layer; a grid inside one
# band (20 rows, 30 wide); a short last band after full ones at every worker
# count (81 rows at width 100); width 1 (3000 rows); and the channels-last
# bands a sink gets, as conv2's do
@pytest.mark.parametrize("shape", [(1, 70, 300), (3, 50, 200), (16, 512, 512),
                                   (16, 20, 30), (16, 81, 100), (16, 3000, 1),
                                   "channels-last"])
def test_threaded_conv_keeps_the_serial_bits(shape, pool_workers, monkeypatch):
    last = shape == "channels-last"
    if last:
        shape = (16, 29, 150)
    rng = np.random.Generator(np.random.PCG64(14))
    x = rng.standard_normal(shape)
    w = rng.standard_normal((16, shape[0], 3, 3))
    b = rng.standard_normal(16)
    ref = _serial_conv(monkeypatch, x, w, b)

    def conv(**kw):
        if not last:
            return _conv3x3_forward(x, w, b, **kw)
        out = np.full(shape[1:] + (16,), np.nan)
        _conv3x3_forward(x, w, b, sink=_channels_last_sink(out), **kw)
        return out.transpose(2, 0, 1)
    assert np.array_equal(conv(), ref)
    assert np.array_equal(conv(tanh=True), np.tanh(ref))


def test_conv_hands_out_every_band_once_under_fast_thread_switches(monkeypatch):
    # 8 threads on 94 bands of 32 rows take turns every microsecond: a band
    # no thread takes leaves NaN in out, and threads sharing a buffer garble it
    monkeypatch.setattr(models, "_MIN_THREADED_CELLS", 0)
    monkeypatch.setattr(models, "_WORKERS", 8)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(7))
    rng = np.random.Generator(np.random.PCG64(17))
    x, w, b = rng.standard_normal((1, 3000, 16)), rng.standard_normal((16, 1, 3, 3)), np.zeros(16)
    ref = _serial_conv(monkeypatch, x, w, b)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            out = np.full((3000, 16, 16), np.nan)
            _conv3x3_forward(x, w, b, tanh=True, sink=_channels_last_sink(out))
            assert np.array_equal(out.transpose(2, 0, 1), np.tanh(ref))
    finally:
        sys.setswitchinterval(interval)
        models._pool.shutdown()


class _RefusingPool:
    # a pool stub: a conv that hands it a run fails
    def submit(self, *args):
        raise AssertionError("a run was handed to the pool")


def test_conv_hands_no_run_to_the_pool_for_one_worker_one_band_or_a_small_grid(monkeypatch):
    monkeypatch.setattr(models, "_pool", _RefusingPool())
    rng = np.random.Generator(np.random.PCG64(21))
    w, b = rng.standard_normal((4, 1, 3, 3)), rng.standard_normal(4)
    # 9216 cells < 256 * 256 at 4 workers; 20 rows, one band of 34; 1 worker
    for workers, min_cells, shape in ((4, 1 << 16, (1, 96, 96)), (4, 0, (1, 20, 30)),
                                      (1, 0, (1, 100, 100))):
        monkeypatch.setattr(models, "_WORKERS", workers)
        monkeypatch.setattr(models, "_MIN_THREADED_CELLS", min_cells)
        x = rng.standard_normal(shape)
        assert np.array_equal(_conv3x3_forward(x, w, b), _conv3x3_reference(x, w, b))


def test_grm_forward_on_a_small_grid_starts_no_thread():
    # the pool is made at import and starts a thread only when handed a run;
    # a 96x96 grid stays on the calling thread
    code = ("import threading\n"
            "import numpy as np\n"
            "from patchscaler.models import GlobalRestorer\n"
            "GlobalRestorer(channels=1, hidden=16, seed=0).forward(np.ones((1, 96, 96)))\n"
            "assert threading.active_count() == 1, threading.enumerate()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("blas", ["1", "cpus"])
def test_pool_threads_times_blas_threads_fit_the_usable_cpus(blas):
    # pool threads that each run a multi-threaded BLAS GEMM oversubscribe
    # the CPUs, so the pool shrinks by the BLAS thread count
    cpus = len(os.sched_getaffinity(0))
    code = ("import os\n"
            "from patchscaler import models\n"
            "print(models._blas_threads(), models._workers())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               OPENBLAS_NUM_THREADS=str(cpus if blas == "cpus" else 1))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    threads, workers = map(int, run.stdout.split())
    assert workers == max(1, cpus // threads)
    assert (threads == 1) if blas == "1" else (threads in (1, cpus))


def test_grm_forward_from_two_threads_at_once(pool_workers, monkeypatch):
    grm = GlobalRestorer(channels=1, hidden=16, seed=0)
    rng = np.random.Generator(np.random.PCG64(15))
    inputs = [rng.standard_normal((1, 96, 200)), rng.standard_normal((1, 70, 300))]
    with monkeypatch.context() as m:
        m.setattr(models, "_WORKERS", 1)
        expected = [grm.forward(x) for x in inputs]
    start = threading.Barrier(2, timeout=60)
    got = [[], []]

    def run(i):
        for _ in range(3):
            start.wait()
            got[i].append(grm.forward(inputs[i]))
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for exp, outs in zip(expected, got):
        assert len(outs) == 3
        for y_hr, conf in outs:
            assert np.array_equal(y_hr, exp[0]) and np.array_equal(conf, exp[1])


def test_conv_does_not_wait_for_a_busy_pool(monkeypatch):
    # with the pool's one thread held, the calling thread runs every band,
    # and the run still queued is cancelled rather than waited for
    monkeypatch.setattr(models, "_MIN_THREADED_CELLS", 0)
    monkeypatch.setattr(models, "_WORKERS", 2)
    pool = models.ThreadPoolExecutor(1)
    monkeypatch.setattr(models, "_pool", pool)
    release = threading.Event()
    busy = pool.submit(release.wait, 30)
    rng = np.random.Generator(np.random.PCG64(16))
    x, w, b = rng.standard_normal((3, 50, 200)), rng.standard_normal((16, 3, 3, 3)), np.zeros(16)
    try:
        y = _conv3x3_forward(x, w, b)
        assert not busy.done()
    finally:
        release.set()
        pool.shutdown()
    assert np.array_equal(y, _serial_conv(monkeypatch, x, w, b))


def test_conv_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(models, "_MIN_THREADED_CELLS", 0)
    monkeypatch.setattr(models, "_WORKERS", 2)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(1))
    _fail_on_the_pool(monkeypatch, "_conv_super_band")
    with pytest.raises(MemoryError, match="item failed"):
        _conv3x3_forward(np.ones((1, 100, 100)), np.ones((4, 1, 3, 3)), np.zeros(4))
    models._pool.shutdown()


def _fail_on_the_pool(monkeypatch, name):
    """Make the models function name raise MemoryError on a pool thread; the
    calling thread's first call waits for that failure."""
    fn, caller = getattr(models, name), threading.current_thread()
    failed = threading.Event()

    def pool_item_fails(*args):
        if threading.current_thread() is caller:
            assert failed.wait(30)
            return fn(*args)
        try:
            raise MemoryError("item failed")
        finally:
            failed.set()
    monkeypatch.setattr(models, name, pool_item_fails)


class _EagerPool:
    # a pool stub whose thread runs a run to the end before submit returns,
    # so the calling thread finds every item taken
    def submit(self, fn, *args):
        fut = Future()

        def run():
            try:
                fut.set_result(fn(*args))
            except BaseException as e:
                fut.set_exception(e)
        thread = threading.Thread(target=run)
        thread.start()
        thread.join(60)
        assert not thread.is_alive()
        return fut


def test_pool_runs_under_the_callers_error_state(monkeypatch):
    # numpy keeps its error state per thread: with every weight scaled by
    # 1e306 the heads overflow, which train_toy's errstate must turn into
    # FloatingPointError, and so NumericError, though the pool's thread
    # computes every super-band.  Warnings are recorded, not raised (as the
    # test settings would), so a pool thread left at numpy's default state
    # only warns
    monkeypatch.setattr(models, "_WORKERS", 2)
    monkeypatch.setattr(models, "_pool", _EagerPool())
    grm = GlobalRestorer(channels=1, hidden=16, seed=0)
    for k in grm.params:
        grm.params[k] *= 1e306
    x = np.random.Generator(np.random.PCG64(23)).standard_normal((1, 256, 256))
    with warnings.catch_warnings(record=True) as warned:
        warnings.simplefilter("always")
        with np.errstate(over="raise", invalid="raise"), pytest.raises(FloatingPointError):
            grm.forward(x)
        with pytest.raises(NumericError):
            train_toy(grm.params, make_grm_objective(grm, lambda rng: (x, x)), steps=1)
    assert not warned


def _dit_case(patch, n):
    # n patches of the given size for a 4-head DiT; K = 3 prompts and None
    # repeat as a b None None a None, so an item of 3 or more patches holds
    # both, and one-patch items meet in every pairing
    dit = PatchDiT(channels=1, patch=patch, width=16, depth=2, heads=4, seed=patch)
    rng = np.random.Generator(np.random.PCG64(40 + patch))
    x = rng.standard_normal((n, 1, patch, patch)).astype(np.float32)
    ka, kb = _prompt(rng, 3, 1, patch), _prompt(rng, 3, 1, patch)
    return dit, x, [(ka, kb, None, None, ka, None)[i % 6] for i in range(n)]


def _serial_dit(monkeypatch, dit, x, t, prompts):
    with monkeypatch.context() as m:
        m.setattr(models, "_WORKERS", 1)
        return dit(x, t, prompts)


# items of 1, 3 and 16 patches; 19, 29 and 40 patches make several items,
# and at 2 or more workers a chunk boundary as well for patch 16 and 12
@pytest.mark.parametrize("patch, n", [(16, 19), (12, 29), (8, 40)])
def test_threaded_dit_keeps_the_serial_bits(patch, n, pool_workers, monkeypatch):
    dit, x, prompts = _dit_case(patch, n)
    for t in (1, 500, 1000):
        assert np.array_equal(dit(x, t, prompts), _serial_dit(monkeypatch, dit, x, t, prompts))


def test_dit_hands_out_every_item_once_under_fast_thread_switches(monkeypatch):
    # 8 threads on 10 items of 3 patches take turns every microsecond
    dit, x, prompts = _dit_case(12, 29)
    ref = _serial_dit(monkeypatch, dit, x, 500, prompts)
    monkeypatch.setattr(models, "_WORKERS", 8)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(7))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert np.array_equal(dit(x, 500, prompts), ref)
    finally:
        sys.setswitchinterval(interval)
        models._pool.shutdown()


def test_dit_worker_exception_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(models, "_WORKERS", 2)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(1))
    _fail_on_the_pool(monkeypatch, "_attn_patches")
    dit, x, prompts = _dit_case(16, 8)
    with pytest.raises(MemoryError, match="item failed"):
        dit(x, 500, prompts)
    models._pool.shutdown()


def test_dit_called_from_two_threads_at_once(pool_workers, monkeypatch):
    cases = [_dit_case(16, 11), _dit_case(12, 29)]
    expected = [_serial_dit(monkeypatch, dit, x, 500, pr) for dit, x, pr in cases]
    start = threading.Barrier(2, timeout=60)
    got = [[], []]

    def run(i):
        dit, x, prompts = cases[i]
        for _ in range(3):
            start.wait()
            got[i].append(dit(x, 500, prompts))
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for exp, outs in zip(expected, got):
        assert len(outs) == 3 and all(np.array_equal(out, exp) for out in outs)


def test_dit_does_not_wait_for_a_busy_pool(monkeypatch):
    # with the pool's one thread held, the calling thread runs every item
    monkeypatch.setattr(models, "_WORKERS", 2)
    pool = models.ThreadPoolExecutor(1)
    monkeypatch.setattr(models, "_pool", pool)
    release = threading.Event()
    busy = pool.submit(release.wait, 30)
    dit, x, prompts = _dit_case(16, 8)
    try:
        out = dit(x, 500, prompts)
        assert not busy.done()
    finally:
        release.set()
        pool.shutdown()
    assert np.array_equal(out, _serial_dit(monkeypatch, dit, x, 500, prompts))


def _random_grm(rng, channels):
    grm = GlobalRestorer(channels=channels, hidden=16, seed=0)
    for k, v in grm.params.items():  # nonzero biases too
        grm.params[k] = rng.standard_normal(v.shape) / 4
    return grm


# 1 and 3 channels; widths under and over 75 (conv2's small-band GEMMs);
# one band, bands that do not divide the rows, and one-row bands
@pytest.mark.parametrize("shape", [(1, 70, 300), (3, 50, 200), (1, 9, 40),
                                   (3, 33, 74), (1, 5, 1), (3, 2, 4100)])
def test_fused_grm_heads_match_the_cached_forward(shape, pool_workers, monkeypatch):
    # conv2's bands compute the heads; forward(x) must be the cached
    # forward's (y_hr, conf), and both the whole-grid heads on the cached
    # channels-last h2, bit for bit
    rng = np.random.Generator(np.random.PCG64(18))
    grm, x = _random_grm(rng, shape[0]), rng.standard_normal(shape)
    p = grm.params
    y_hr, conf = grm.forward(x)
    y_c, conf_c, (_, h1, h2, sig) = grm.forward(x, want_cache=True)
    assert np.array_equal(y_hr, y_c) and np.array_equal(conf, conf_c)
    assert h1.transpose(1, 2, 0).flags.c_contiguous  # channels-last
    assert h2.transpose(1, 2, 0).flags.c_contiguous
    assert np.array_equal(h1, _serial_conv(monkeypatch, x, p["conv1.w"], p["conv1.b"], tanh=True))
    assert np.array_equal(h2, _serial_conv(monkeypatch, h1, p["conv2.w"], p["conv2.b"], tanh=True))
    feat = np.einsum("cf,fhw->chw", p["feat.w"], h2) + p["feat.b"][:, None, None]
    z = np.einsum("f,fhw->hw", p["conf.w"], h2)[None] + p["conf.b"][0]
    ref_sig = 1.0 / (1.0 + np.exp(-z))
    assert np.array_equal(y_hr, x + feat) and np.array_equal(sig, ref_sig)
    assert np.array_equal(conf, CONF_FLOOR + (1.0 - CONF_FLOOR) * ref_sig)


def test_grm_heads_under_fast_thread_switches(monkeypatch):
    # 6 threads write the heads of 6 super-bands (94 bands of 32 rows),
    # taking turns every microsecond: a band written twice, or not at all,
    # moves the bits
    rng = np.random.Generator(np.random.PCG64(20))
    grm, x = _random_grm(rng, 1), rng.standard_normal((1, 3000, 16))
    with monkeypatch.context() as m:
        m.setattr(models, "_WORKERS", 1)
        ref = grm.forward(x, want_cache=True)
    monkeypatch.setattr(models, "_MIN_THREADED_CELLS", 0)
    monkeypatch.setattr(models, "_WORKERS", 8)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(7))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for want_cache in (False, True):
            got = grm.forward(x, want_cache=want_cache)
            assert all(np.array_equal(a, b) for a, b in zip(got[:2], ref[:2]))
        assert all(np.array_equal(a, b) for a, b in zip(got[2], ref[2]))
    finally:
        sys.setswitchinterval(interval)
        models._pool.shutdown()


def _two_pass_forward(grm, x):
    # the GRM forward as two conv calls: conv1 into a whole h1, then conv2
    # over it into the heads; (y_hr, conf, channels-last h1, h2, sig)
    p, (c, h, w) = grm.params, x.shape
    h1 = _conv3x3_forward(x, p["conv1.w"], p["conv1.b"], tanh=True)
    y_hr, conf, sig = np.empty((c, h, w)), np.empty((1, h, w)), np.empty((1, h, w))
    h2 = np.empty((h, w, len(p["conv2.w"])))
    _conv3x3_forward(h1, p["conv2.w"], p["conv2.b"], tanh=True,
                     sink=models._heads_sink(p, x, y_hr, conf, h2, sig))
    return y_hr, conf, h1.transpose(1, 2, 0), h2, sig


def _super_band(width, workers):
    # the rows of a band and of a super-band of the two-conv trunk
    band = max(1, 4096 // (width * workers))
    return band, band * -(-(1 << 13) // (band * width))


@pytest.mark.parametrize("channels", [1, 3, 4])
def test_fused_trunk_keeps_the_bits_of_two_conv_calls(channels, pool_workers):
    # one super-band (h = 1, just under and at one), a last band joining the
    # one above (sup + 1), a second super-band of one band whose first band
    # takes the halo row (sup + band), and three with a one-row tail; widths
    # under 75, where a band of its own for a halo row would be under ~75
    # cells and could move the bits (width 1 makes it one cell)
    rng = np.random.Generator(np.random.PCG64(22))
    for width in (1, 40, 74):
        band, sup = _super_band(width, pool_workers)
        for h in (1, sup - 1, sup, sup + 1, sup + band, 2 * sup + band + 1):
            grm, x = _random_grm(rng, channels), rng.standard_normal((channels, h, width))
            ref = _two_pass_forward(grm, x)
            y_hr, conf, (_, h1, h2, sig) = grm.forward(x, want_cache=True)
            got = (y_hr, conf, h1.transpose(1, 2, 0), h2.transpose(1, 2, 0), sig)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), (width, h)
            assert all(np.array_equal(a, b) for a, b in zip(grm.forward(x), ref))


@pytest.mark.parametrize("workers", [1, 2])
def test_grm_inference_holds_neither_hidden_layer(workers, monkeypatch):
    # at 512x512 h1 takes 16 * 512^2 * 8 B = 33.5 MB; a forward that made
    # the whole h1 peaks near 46 MB, and one that also held h2 near 80 MB
    monkeypatch.setattr(models, "_WORKERS", workers)
    monkeypatch.setattr(models, "_pool", models.ThreadPoolExecutor(max(1, workers - 1)))
    grm = GlobalRestorer(channels=1, hidden=16, seed=0)
    x = np.random.Generator(np.random.PCG64(19)).standard_normal((1, 512, 512))
    tracemalloc.start()
    try:
        grm.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        models._pool.shutdown()
    assert peak < 0.6 * 16 * 512 * 512 * 8


def test_grm_forward_contract():
    grm = GlobalRestorer(channels=1, hidden=4, seed=0)
    rng = np.random.Generator(np.random.PCG64(5))
    x = rng.standard_normal((1, 8, 8))
    y, conf = grm(x)
    assert y.shape == (1, 8, 8) and conf.shape == (1, 8, 8)
    assert np.all(conf > CONF_FLOOR / 2) and np.all(conf <= 1.0)
    with pytest.raises(GridShapeError):
        grm(np.zeros((2, 8, 8)))


def test_grm_gradients_spot_check():
    grm = GlobalRestorer(channels=1, hidden=4, seed=1)
    rng = np.random.Generator(np.random.PCG64(6))
    y_lr = rng.standard_normal((1, 6, 6))
    x_hr = rng.standard_normal((1, 6, 6))
    _, grads = grm.loss_and_grads(y_lr, x_hr)
    entries = [("conv1.w", (0, 0, 1, 2)), ("conv1.b", (2,)),
               ("conv2.w", (3, 1, 0, 0)), ("feat.w", (0, 2)),
               ("conf.w", (1,)), ("conf.b", (0,))]
    worst = _fd_check(lambda: grm.loss_and_grads(y_lr, x_hr)[0],
                      grm.params, entries, grads)
    assert worst <= 1e-4


def test_gaussian_oracle_limits():
    s = build_linear_schedule(1000)
    stats = GaussianOracleStats(mean=0.0, var=1.0)
    x = np.array([2.0, -1.0])
    # unit prior variance collapses the posterior mean to sqrt(abar) * x_t
    for t in (1, 300, 1000):
        ab = s.alpha_bar(t)
        assert np.allclose(GaussianOracleDenoiser(stats, s)(x, t),
                           np.sqrt(ab) * x)
    # tiny prior variance: estimate pinned near the prior mean at high noise
    tight = GaussianOracleStats(mean=0.7, var=1e-8)
    out = GaussianOracleDenoiser(tight, s)(x, 1000)
    assert np.allclose(out, 0.7, atol=1e-3)
    with pytest.raises(ConfigError):
        GaussianOracleStats(var=0.0)


def test_gaussian_oracle_is_conditional_mean():
    # regression of x0 on x_t over many draws matches the closed form
    s = build_linear_schedule(1000)
    stats = GaussianOracleStats(mean=0.5, var=2.0)
    rng = np.random.Generator(np.random.PCG64(7))
    n, t = 100_000, 400
    x0 = stats.mean + np.sqrt(stats.var) * rng.standard_normal(n)
    x_t = forward_sample(s, x0, t, rng.standard_normal(n))
    pred = GaussianOracleDenoiser(stats, s)(x_t, t)
    resid = x0 - pred
    # conditional mean leaves residuals uncorrelated with x_t
    assert abs(np.mean(resid)) <= 3.0 / np.sqrt(n) * np.sqrt(stats.var)
    assert abs(np.corrcoef(resid, x_t)[0, 1]) <= 3.0 / np.sqrt(n) * 1.5
    # and no shifted estimator does better in MSE
    mse = np.mean(resid ** 2)
    for shift in (-0.05, 0.05):
        assert np.mean((x0 - (pred + shift)) ** 2) > mse


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gaussian_oracle_leaves_its_input_alone(dtype):
    # in place on a new array, with the dtype and bits of the expression
    # (sqrt(ab) var x_t + (1 - ab) mean) / denom
    s = build_linear_schedule(1000)
    stats = GaussianOracleStats(mean=0.3, var=0.5)
    x_t = np.random.Generator(np.random.PCG64(8)).standard_normal((3, 1, 4, 4)).astype(dtype)
    before = x_t.copy()
    out = GaussianOracleDenoiser(stats, s)(x_t, 400)
    ab = s.alpha_bar(400)
    denom = ab * stats.var + 1.0 - ab
    expected = (np.sqrt(ab) * stats.var * x_t + (1.0 - ab) * stats.mean) / denom
    assert np.array_equal(x_t, before)
    assert not np.shares_memory(out, x_t)
    assert out.dtype == expected.dtype and np.array_equal(out, expected)


def test_train_toy_basic_contracts():
    grm = GlobalRestorer(channels=1, hidden=4, seed=2)
    before = {k: v.copy() for k, v in grm.params.items()}
    rng0 = np.random.Generator(np.random.PCG64(8))
    y_lr = rng0.standard_normal((1, 8, 8))
    x_hr = y_lr + 0.3 * rng0.standard_normal((1, 8, 8))
    obj = make_grm_objective(grm, lambda rng: (y_lr, x_hr))
    train_toy(grm.params, obj, steps=5, lr=0.0)
    for k in before:
        assert np.array_equal(grm.params[k], before[k])
    with pytest.raises(ConfigError):
        train_toy(grm.params, obj, steps=0)

    def bad_objective(rng):
        return float("inf"), {k: np.zeros_like(v) for k, v in grm.params.items()}

    with pytest.raises(NumericError):
        train_toy(grm.params, bad_objective, steps=3)


def test_train_toy_grm_loss_halves():
    grm = GlobalRestorer(channels=1, hidden=4, seed=3)
    rng0 = np.random.Generator(np.random.PCG64(9))
    y_lr = rng0.standard_normal((1, 8, 8))
    x_hr = y_lr + 0.3 * rng0.standard_normal((1, 8, 8))
    trace = train_toy(grm.params, make_grm_objective(grm, lambda rng: (y_lr, x_hr)),
                      steps=300, lr=3e-3, seed=0)
    assert np.mean(trace[-20:]) < 0.5 * np.mean(trace[:20])


def test_trained_dit_near_oracle(trained_dit, schedule1000):
    stats = GaussianOracleStats(0.0, 1.0)
    oracle = GaussianOracleDenoiser(stats, schedule1000)
    rng = np.random.Generator(np.random.PCG64(10))
    t = 300
    se_dit = se_orc = 0.0
    trials = 200
    for _ in range(trials):
        x0 = rng.standard_normal((1, 4, 4))
        x_t = forward_sample(schedule1000, x0, t, rng.standard_normal((1, 4, 4)))
        se_dit += np.mean((trained_dit(x_t[None], t)[0] - x0) ** 2)
        se_orc += np.mean((oracle(x_t, t) - x0) ** 2)
    # oracle is the Bayes estimator, so trained MSE can only approach it
    assert se_dit <= 1.2 * se_orc
    assert se_dit >= 0.95 * se_orc


def test_dit_objective_trains(schedule1000):
    dit = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=6)
    obj = make_dit_gaussian_objective(dit, schedule1000,
                                      GaussianOracleStats(0.0, 1.0), batch=4)
    trace = train_toy(dit.params, obj, steps=120, lr=3e-3, seed=0)
    assert np.mean(trace[-20:]) < np.mean(trace[:20])


def test_checkpoint_roundtrip(tmp_path):
    grm = GlobalRestorer(channels=1, hidden=4, seed=4)
    path = tmp_path / "model.psck"
    save_params(path, grm.params)
    loaded = load_params(path)
    assert set(loaded) == set(grm.params)
    for k, v in grm.params.items():
        assert np.array_equal(loaded[k], v.astype(np.float32).astype(np.float64))
    fresh = GlobalRestorer(channels=1, hidden=4, seed=9)
    restore_into(fresh, loaded)
    y = np.random.default_rng(0).standard_normal((1, 6, 6))
    out_a, conf_a = grm(y)
    out_b, conf_b = fresh(y)
    assert np.max(np.abs(out_a - out_b)) <= 1e-5
    assert np.max(np.abs(conf_a - conf_b)) <= 1e-5


def test_checkpoint_errors(tmp_path):
    grm = GlobalRestorer(channels=1, hidden=4, seed=5)
    path = tmp_path / "model.psck"
    save_params(path, grm.params)
    raw = path.read_bytes()

    bad = tmp_path / "bad.psck"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(MagicMismatchError):
        load_params(bad)

    trunc = tmp_path / "trunc.psck"
    trunc.write_bytes(raw[:len(raw) - 7])
    with pytest.raises(TruncatedFileError):
        load_params(trunc)

    loaded = load_params(path)
    del loaded["conf.b"]
    with pytest.raises(DimensionMismatchError):
        restore_into(GlobalRestorer(channels=1, hidden=4), loaded)
    loaded = load_params(path)
    loaded["conf.w"] = np.zeros(7)
    with pytest.raises(DimensionMismatchError):
        restore_into(GlobalRestorer(channels=1, hidden=4), loaded)
