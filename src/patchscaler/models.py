"""Toy neural components with hand-rolled forward/backward passes.

Contains the coarse restorer with a confidence head (GlobalRestorer), the
patch denoiser with texture-prompt cross-attention and time-conditioned
dimension-wise scaling (PatchDiT), a closed-form linear-Gaussian oracle
denoiser for verification, and a small Adam training loop.

Everything is plain numpy.  Training runs in float64 so analytic gradients
can be checked against central finite differences; PatchDiT inference
(``PatchDiT.__call__``) runs in float32.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .confidence import CONF_FLOOR, confidence_loss_and_grads
from .errors import ConfigError, GridShapeError, NumericError
from .schedule import NoiseSchedule, forward_sample


# ---------------------------------------------------------------------------
# time embedding

def time_embed(t: int, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a time step; first half sin, second half cos."""
    if dim % 2:
        raise ConfigError("embedding dim must be even")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


# ---------------------------------------------------------------------------
# multi-head attention (shared by self- and cross-attention)

def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    # (..., n, d) -> (..., heads, n, d // heads)
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *lead, h, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * dh)


def _attn_forward(q_in, kv_in, p, pre, heads):
    """Multi-head attention of (..., n, d) queries on (..., m, d) keys.

    Computes in the dtype of its inputs.  The scale goes on q, a tensor
    m / dh times smaller than the scores, and the scores are built key-major,
    (..., heads, m, n), so the softmax reductions over keys run along rows
    and the normalisation happens in place: a batch needs one score
    temporary, and the weights (..., heads, n, m) are a transposed view.
    """
    q = q_in @ p[pre + ".wq"]
    k = kv_in @ p[pre + ".wk"]
    v = kv_in @ p[pre + ".wv"]
    qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
    # a Python float: a numpy float64 scalar would promote float32 queries
    scale = float(1.0 / np.sqrt(qh.shape[-1]))
    qh = qh * scale
    at = kh @ qh.swapaxes(-1, -2)
    at -= at.max(axis=-2, keepdims=True)
    np.exp(at, out=at)
    at /= at.sum(axis=-2, keepdims=True)
    a = at.swapaxes(-1, -2)
    merged = _merge_heads(a @ vh)
    out = merged @ p[pre + ".wo"] + p[pre + ".bo"]
    return out, (q_in, kv_in, qh, kh, vh, a, merged, scale)


def _attn_backward(dout, cache, p, pre, grads, heads):
    q_in, kv_in, qh, kh, vh, a, merged, scale = cache
    grads[pre + ".wo"] += merged.T @ dout
    grads[pre + ".bo"] += dout.sum(axis=0)
    d_merged = dout @ p[pre + ".wo"].T
    d_oh = _split_heads(d_merged, heads)
    d_a = d_oh @ vh.transpose(0, 2, 1)
    d_vh = a.transpose(0, 2, 1) @ d_oh
    d_scores = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True))
    d_qh = d_scores @ kh * scale
    d_kh = d_scores.transpose(0, 2, 1) @ qh  # qh holds the scaled queries
    dq, dk, dv = _merge_heads(d_qh), _merge_heads(d_kh), _merge_heads(d_vh)
    grads[pre + ".wq"] += q_in.T @ dq
    grads[pre + ".wk"] += kv_in.T @ dk
    grads[pre + ".wv"] += kv_in.T @ dv
    d_q_in = dq @ p[pre + ".wq"].T
    d_kv_in = dk @ p[pre + ".wk"].T + dv @ p[pre + ".wv"].T
    return d_q_in, d_kv_in


# ---------------------------------------------------------------------------
# Patch-DiT

class PatchDiT:
    """Patch-level transformer denoiser predicting the clean patch x0.

    Per-cell tokens run through depth x (self-attention -> cross-attention
    to texture-prompt tokens -> feed-forward) blocks.  Time conditioning
    enters as dimension-wise scale vectors: once on the token embedding and
    once on each cross-attention output (the prompt encoding itself is
    time-step independent).
    """

    def __init__(self, channels: int = 1, patch: int = 16, width: int = 64,
                 depth: int = 2, heads: int = 4, seed: int = 0):
        if width % heads:
            raise ConfigError("width must be divisible by head count")
        self.channels = channels
        self.patch = patch
        self.width = width
        self.depth = depth
        self.heads = heads
        self.ff = 2 * width
        rng = np.random.Generator(np.random.PCG64(seed))
        d, f = width, self.ff
        c = channels
        prompt_in = channels * patch * patch

        def w(*shape):
            return rng.standard_normal(shape) / np.sqrt(shape[0])

        p = {
            "embed.w": w(c, d), "embed.b": np.zeros(d),
            "time_in.w": 0.1 * w(d, d), "time_in.b": np.zeros(d),
            "prompt.w": w(prompt_in, d), "prompt.b": np.zeros(d),
            "out.w": 0.1 * w(d, c), "out.b": np.zeros(c),
        }
        for i in range(depth):
            b = f"b{i}"
            for sub in ("sa", "ca"):
                p[f"{b}.{sub}.wq"] = w(d, d)
                p[f"{b}.{sub}.wk"] = w(d, d)
                p[f"{b}.{sub}.wv"] = w(d, d)
                p[f"{b}.{sub}.wo"] = 0.1 * w(d, d)
                p[f"{b}.{sub}.bo"] = np.zeros(d)
            p[f"{b}.ca.ts.w"] = 0.1 * w(d, d)
            p[f"{b}.ca.ts.b"] = np.zeros(d)
            p[f"{b}.ff.w1"] = w(d, f)
            p[f"{b}.ff.b1"] = np.zeros(f)
            p[f"{b}.ff.w2"] = 0.1 * w(f, d)
            p[f"{b}.ff.b2"] = np.zeros(d)
        self.params = p

    # -- prompt encoding (similarity-aware, time independent) ---------------

    def _encode_prompt(self, prompt, p):
        """(K, width) prompt tokens in the dtype of p, and what backward needs."""
        dt = p["prompt.w"].dtype
        tp = prompt.priors.astype(dt).reshape(len(prompt.priors), -1)
        sims = prompt.similarities.astype(dt)
        lin = tp @ p["prompt.w"] + p["prompt.b"]
        return lin * sims[:, None], (tp, sims)

    # -- forward ------------------------------------------------------------

    def forward(self, x_t: np.ndarray, t: int, prompt=None, want_cache=False):
        c, v = self.channels, self.patch
        p = self.params
        tokens = x_t.astype(np.float64).reshape(c, v * v).T  # (n, c)
        te = time_embed(t, self.width)
        h0 = tokens @ p["embed.w"] + p["embed.b"]
        s_in = te @ p["time_in.w"] + p["time_in.b"]
        h = h0 * (1.0 + s_in)

        if prompt is not None:
            pt, pcache = self._encode_prompt(prompt, p)
        else:
            pt, pcache = None, None

        blocks = []
        for i in range(self.depth):
            b = f"b{i}"
            sa_out, sa_cache = _attn_forward(h, h, p, f"{b}.sa", self.heads)
            h_sa = h + sa_out
            if pt is not None:
                ca_out, ca_cache = _attn_forward(h_sa, pt, p, f"{b}.ca", self.heads)
                s_b = te @ p[f"{b}.ca.ts.w"] + p[f"{b}.ca.ts.b"]
                h_ca = h_sa + ca_out * s_b
            else:
                ca_out, ca_cache, s_b = None, None, None
                h_ca = h_sa
            u = h_ca @ p[f"{b}.ff.w1"] + p[f"{b}.ff.b1"]
            g = np.tanh(u)
            h_next = h_ca + g @ p[f"{b}.ff.w2"] + p[f"{b}.ff.b2"]
            blocks.append((h, sa_cache, h_sa, ca_out, ca_cache, s_b, h_ca, g))
            h = h_next

        y = h @ p["out.w"] + p["out.b"]
        out = y.T.reshape(c, v, v)
        if not want_cache:
            return out
        cache = (tokens, te, h0, s_in, pt, pcache, blocks, h)
        return out, cache

    def __call__(self, x_t: np.ndarray, t: int, prompts=None) -> np.ndarray:
        """Denoise a (B, c, V, V) batch at step t; prompts is None or B prompts,
        each None or a retrieval result, all of one length K per call.

        The inference path: the whole network runs in float32 on (b, n, d)
        tokens, b patches at a time, with the parameters cast once per call.
        b = max(1, 2**18 // (heads * n * n)) keeps each self-attention score
        tensor near 256K float32 elements (1 MB), inside a per-core L2 cache;
        larger chunks (4 MB, or one whole group) were slower.
        The output stays within a tested bound of the float64 forward.
        """
        c, v = self.channels, self.patch
        if x_t.ndim != 4 or x_t.shape[1:] != (c, v, v):
            raise GridShapeError(f"expected a (B, {c}, {v}, {v}) batch, got {x_t.shape}")
        if prompts is None:
            prompts = [None] * len(x_t)
        if len(prompts) != len(x_t):
            raise ConfigError(f"{len(prompts)} prompts for {len(x_t)} patches")
        p = {k: a.astype(np.float32) for k, a in self.params.items()}
        te = time_embed(t, self.width).astype(np.float32)
        s_in = 1.0 + (te @ p["time_in.w"] + p["time_in.b"])
        s_ca = [te @ p[f"b{i}.ca.ts.w"] + p[f"b{i}.ca.ts.b"]
                for i in range(self.depth)]
        n = v * v
        chunk = max(1, (1 << 18) // (self.heads * n * n))
        out = np.empty(x_t.shape, np.float32)
        for s in range(0, len(x_t), chunk):
            out[s:s + chunk] = self._infer(x_t[s:s + chunk], prompts[s:s + chunk],
                                           p, s_in, s_ca)
        return out.astype(x_t.dtype, copy=False)

    def _infer(self, x, prompts, p, s_in, s_ca):
        """float32 forward of a (b, c, V, V) chunk; see __call__."""
        b, c = len(x), self.channels
        tokens = x.reshape(b, c, -1).swapaxes(1, 2).astype(np.float32)  # (b, n, c)
        h = tokens @ p["embed.w"] + p["embed.b"]
        h *= s_in
        # cross-attention sees only the patches with a prompt, their prompts
        # stacked into one (k, K, d) batch
        idx = [i for i, pr in enumerate(prompts) if pr is not None]
        pt = np.stack([self._encode_prompt(prompts[i], p)[0] for i in idx]) if idx else None
        for i in range(self.depth):
            pre = f"b{i}"
            h += _attn_forward(h, h, p, f"{pre}.sa", self.heads)[0]
            if idx:
                h[idx] += _attn_forward(h[idx], pt, p, f"{pre}.ca", self.heads)[0] * s_ca[i]
            g = np.tanh(h @ p[f"{pre}.ff.w1"] + p[f"{pre}.ff.b1"])
            h += g @ p[f"{pre}.ff.w2"]
            h += p[f"{pre}.ff.b2"]
        y = h @ p["out.w"] + p["out.b"]  # (b, n, c)
        return y.swapaxes(1, 2).reshape(x.shape)

    # -- backward -----------------------------------------------------------

    def backward(self, d_out: np.ndarray, cache, prompt=None):
        """Gradients of a scalar loss w.r.t. all parameters given d loss/d output."""
        p = self.params
        tokens, te, h0, s_in, pt, pcache, blocks, h_final = cache
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        dy = d_out.reshape(self.channels, -1).T  # (n, c)
        grads["out.w"] += h_final.T @ dy
        grads["out.b"] += dy.sum(axis=0)
        dh = dy @ p["out.w"].T
        d_pt = np.zeros_like(pt) if pt is not None else None
        d_te = np.zeros(self.width)

        for i in reversed(range(self.depth)):
            b = f"b{i}"
            h_in, sa_cache, h_sa, ca_out, ca_cache, s_b, h_ca, g = blocks[i]
            # feed-forward
            d_g = dh @ p[f"{b}.ff.w2"].T
            grads[f"{b}.ff.w2"] += g.T @ dh
            grads[f"{b}.ff.b2"] += dh.sum(axis=0)
            d_u = d_g * (1.0 - g * g)
            grads[f"{b}.ff.w1"] += h_ca.T @ d_u
            grads[f"{b}.ff.b1"] += d_u.sum(axis=0)
            d_hca = dh + d_u @ p[f"{b}.ff.w1"].T
            # cross-attention with time scaling
            if ca_cache is not None:
                d_ca_out = d_hca * s_b
                d_sb = (d_hca * ca_out).sum(axis=0)
                grads[f"{b}.ca.ts.w"] += np.outer(te, d_sb)
                grads[f"{b}.ca.ts.b"] += d_sb
                d_te += p[f"{b}.ca.ts.w"] @ d_sb
                d_q, d_kv = _attn_backward(d_ca_out, ca_cache, p, f"{b}.ca",
                                           grads, self.heads)
                d_hsa = d_hca + d_q
                d_pt += d_kv
            else:
                d_hsa = d_hca
            # self-attention
            d_q, d_kv = _attn_backward(d_hsa, sa_cache, p, f"{b}.sa",
                                       grads, self.heads)
            dh = d_hsa + d_q + d_kv

        # prompt encoder
        if d_pt is not None:
            tp, sims = pcache
            d_lin = d_pt * sims[:, None]
            grads["prompt.w"] += tp.T @ d_lin
            grads["prompt.b"] += d_lin.sum(axis=0)

        # embedding-time scaling
        d_h0 = dh * (1.0 + s_in)
        d_sin = (dh * h0).sum(axis=0)
        grads["time_in.w"] += np.outer(te, d_sin)
        grads["time_in.b"] += d_sin
        grads["embed.w"] += tokens.T @ d_h0
        grads["embed.b"] += d_h0.sum(axis=0)
        return grads

    def loss_and_grads(self, x_t: np.ndarray, t: int, target: np.ndarray,
                       prompt=None):
        """MSE to the clean target patch and its parameter gradients."""
        out, cache = self.forward(x_t, t, prompt, want_cache=True)
        diff = out - target.astype(np.float64)
        loss = float(np.mean(diff * diff))
        d_out = 2.0 * diff / diff.size
        return loss, self.backward(d_out, cache, prompt)


# ---------------------------------------------------------------------------
# linear-Gaussian oracle denoiser

@dataclass(frozen=True)
class GaussianOracleStats:
    """Prior mean and per-cell variance of the synthetic data distribution."""

    mean: float | np.ndarray = 0.0
    var: float = 1.0

    def __post_init__(self):
        if self.var <= 0:
            raise ConfigError("prior variance must be positive")


class GaussianOracleDenoiser:
    """Exact posterior mean E[x0 | x_t] under Gaussian data and corruption."""

    def __init__(self, stats: GaussianOracleStats, schedule: NoiseSchedule):
        self.stats = stats
        self.schedule = schedule

    def __call__(self, x_t: np.ndarray, t: int, prompts=None) -> np.ndarray:
        # elementwise, so a (B, c, V, V) batch needs no loop; no prompts used
        # (sqrt(ab) var x_t + (1 - ab) mean) / denom, in place on one new array
        stats, ab = self.stats, self.schedule.alpha_bar(t)
        denom = ab * stats.var + 1.0 - ab
        x0_hat = np.multiply(np.sqrt(ab) * stats.var, x_t)
        x0_hat += (1.0 - ab) * stats.mean
        x0_hat /= denom
        return x0_hat


# ---------------------------------------------------------------------------
# GRM: coarse restorer + confidence head

def _windows(x):
    """(h, w, c, 3, 3) view of the zero-padded 3x3 neighbourhood of each cell."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    return win.transpose(1, 2, 0, 3, 4)


def _channels_last(a):
    """(f, h, w) view of a copy of a that is channels-last in memory."""
    return a.transpose(1, 2, 0).copy().transpose(2, 0, 1)


# Threads the GRM convs split their bands among: every CPU this process may
# use.  The pool holds _WORKERS - 1 of them, as the calling thread runs one
# share itself, and is made on first use.  A grid of fewer cells than
# _MIN_THREADED_CELLS (256x256) stays on the calling thread: its conv takes
# a few ms, and in 50 s benchmark runs at 96x96 (2 vCPUs) a process whose
# conv had used the second thread read about +10% per image and +37% on
# set-up against one that had not.
_WORKERS = len(os.sched_getaffinity(0))
_MIN_THREADED_CELLS = 1 << 16
_pool = None
_pool_lock = threading.Lock()


def _conv_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="grm-conv")
        return _pool


def _conv3x3_forward(x, w, b, out=None, tanh=False):
    # im2col + GEMM in bands of output rows, run by k threads, k = _WORKERS
    # (1 on a small grid, see above) capped at the band count: k - 1 runs go
    # to the pool and the calling thread makes the last.  Each run takes the
    # next band not yet taken until none is left, so a thread the OS leaves
    # waiting holds up at most the band it is on, and a run the pool has not
    # started when the bands run out is cancelled.  A band holds
    # max(1, 4096 // (width * k)) rows, so the k column buffers together
    # stay near 4096 cells, the fastest single band probed at 512x512, where
    # the whole column matrix would take ~300 MB.  The caller allocates
    # every buffer: one a worker allocates lands in that thread's malloc
    # arena and is not reused.
    # Each run copies a band's rows of x, and the row above and below, into
    # its zero-bordered row buffer, and fills its channels-first
    # (c, 3, 3, rows, width) column buffer from that buffer's 3x3 windows
    # in one copy.  The GEMM stays (cells, 9c) @ (9c, f), on a transposed
    # view of the column buffer, so the (c, di, dj) reduction runs through
    # the BLAS kernels of a plain im2col product, and neither the band
    # height nor the thread that runs a band moves the bits.  The faster
    # (f, 9c) @ (9c, cells) runs a band's trailing cells through other
    # kernels and changes bits; so does a band of under ~75 cells with
    # c >= 4 here, as OpenBLAS picks its small-matrix kernel by operand
    # layout (every band of a grid 75 or more wide has at least 75 cells).
    # Each band's (cells, f) result gets the bias, and with tanh=True the
    # tanh, while still in cache, and goes into the (f, h, w) output: out if
    # given, of any memory layout, else a new C-contiguous array.  The
    # threads run only _conv_bands, which a tracer does not wrap.
    c, h_, w_ = x.shape
    f = len(w)
    wt = w.reshape(f, c * 9).T
    y = np.empty((f, h_, w_)) if out is None else out
    k = _WORKERS if h_ * w_ >= _MIN_THREADED_CELLS else 1
    band = max(1, 4096 // (w_ * k))
    k = max(1, min(k, -(-h_ // band)))
    rows = min(band, h_)
    xbs = np.zeros((k, c, rows + 2, w_ + 2))
    bufs = np.empty((k, c * 9 * rows * w_))
    outs = np.empty((k, rows * w_, f))
    # shared by the runs; next() on it is one C call, atomic under the GIL
    starts = iter(range(0, h_, band))
    runs = [(x, wt, b, y, starts, band, xbs[i], bufs[i], outs[i], tanh) for i in range(k)]
    if k == 1:
        _conv_bands(*runs[0])
        return y
    pool = _conv_pool()
    futures = [pool.submit(_conv_bands, *run) for run in runs[:-1]]
    try:
        _conv_bands(*runs[-1])
    finally:
        # a run still queued is cancelled: waiting would last until the
        # pool's thread takes it up
        wait([fut for fut in futures if not fut.cancel()])
    for fut in futures:
        if not fut.cancelled():
            fut.result()
    return y


def _conv_bands(x, wt, b, y, starts, band, xb, buf, o, tanh):
    """The bands of _conv3x3_forward that start at the rows it takes from
    starts, one at a time: rows of x into xb, their 3x3 windows into buf,
    the GEMM into o and the result into y."""
    c, h_, w_ = x.shape
    f = wt.shape[1]
    # win[:, di, dj, i, j] is xb[:, i + di, j + dj], band row i's window on
    # x row r + i + di - 1 and column j + dj - 1
    s0, s1, s2 = xb.strides
    win = np.lib.stride_tricks.as_strided(xb, (c, 3, 3, xb.shape[1] - 2, w_),
                                          (s0, s1, s2, s1, s2))
    for r in starts:
        bh = min(band, h_ - r)
        n = bh * w_
        # xb row i holds x row r + i - 1, zero past either end of x; its
        # first and last columns stay zero
        lo, hi = max(0, 1 - r), min(bh + 2, h_ + 1 - r)
        xb[:, :lo] = 0.0
        xb[:, lo:hi, 1:-1] = x[:, r + lo - 1:r + hi - 1]
        xb[:, hi:bh + 2] = 0.0
        cols = buf[:c * 9 * n].reshape(c, 3, 3, bh, w_)
        cols[...] = win[:, :, :, :bh]
        ob = o[:n]
        np.matmul(cols.reshape(c * 9, n).T, wt, out=ob)
        ob += b
        if tanh:
            np.tanh(ob, out=ob)
        y[:, r:r + bh] = ob.T.reshape(f, bh, w_)


def _conv3x3_backward(dy, x, w):
    f = len(w)
    c, h_, w_ = x.shape
    cols = _windows(x).reshape(h_ * w_, c * 9)
    dyc = dy.transpose(1, 2, 0).reshape(h_ * w_, f)
    dw = (dyc.T @ cols).reshape(w.shape)
    db = dyc.sum(axis=0)
    dcols = (dyc @ w.reshape(f, -1)).reshape(h_, w_, c, 3, 3)
    dxp = np.zeros((c, h_ + 2, w_ + 2))
    for di in range(3):
        for dj in range(3):
            dxp[:, di:di + h_, dj:dj + w_] += dcols[:, :, :, di, dj].transpose(2, 0, 1)
    return dw, db, dxp[:, 1:-1, 1:-1]


class GlobalRestorer:
    """Two 3x3 conv layers with tanh, then per-cell feature and confidence heads.

    The feature head predicts a residual correction to the input; the
    confidence head maps through a floored sigmoid so log C stays finite.
    """

    def __init__(self, channels: int = 1, hidden: int = 16, seed: int = 0):
        self.channels = channels
        self.hidden = hidden
        rng = np.random.Generator(np.random.PCG64(seed))
        c, f = channels, hidden
        self.params = {
            "conv1.w": rng.standard_normal((f, c, 3, 3)) / np.sqrt(9 * c),
            "conv1.b": np.zeros(f),
            "conv2.w": rng.standard_normal((f, f, 3, 3)) / np.sqrt(9 * f),
            "conv2.b": np.zeros(f),
            "feat.w": 0.1 * rng.standard_normal((c, f)) / np.sqrt(f),
            "feat.b": np.zeros(c),
            "conf.w": 0.1 * rng.standard_normal(f) / np.sqrt(f),
            "conf.b": np.zeros(1),
        }

    def forward(self, y_lr: np.ndarray, want_cache=False):
        if y_lr.ndim != 3 or y_lr.shape[0] != self.channels:
            raise GridShapeError(f"expected ({self.channels}, h, w), got {y_lr.shape}")
        p = self.params
        x = y_lr.astype(np.float64)
        h1 = _conv3x3_forward(x, p["conv1.w"], p["conv1.b"], tanh=True)
        # einsum's summation order in the heads, and the backward's in
        # training, follow the memory layout of h2 and h1: both stay in the
        # channels-last layout the checkpoint and golden digests were made
        # with, so outputs and trained weights keep their bits.  conv2 writes
        # h2 straight into that layout; only the training cache copies h1.
        _, h, w = x.shape
        h2 = np.empty((h, w, len(p["conv2.w"]))).transpose(2, 0, 1)
        _conv3x3_forward(h1, p["conv2.w"], p["conv2.b"], out=h2, tanh=True)
        feat = np.einsum("cf,fhw->chw", p["feat.w"], h2) + p["feat.b"][:, None, None]
        y_hr = x + feat
        z = np.einsum("f,fhw->hw", p["conf.w"], h2)[None] + p["conf.b"][0]
        sig = 1.0 / (1.0 + np.exp(-z))
        conf = CONF_FLOOR + (1.0 - CONF_FLOOR) * sig
        if not want_cache:
            return y_hr, conf
        return y_hr, conf, (x, _channels_last(h1), h2, sig)

    def __call__(self, y_lr: np.ndarray):
        return self.forward(y_lr)

    def loss_and_grads(self, y_lr: np.ndarray, x_hr: np.ndarray):
        """Confidence-driven loss through both heads, with parameter grads."""
        p = self.params
        y_hr, conf, cache = self.forward(y_lr, want_cache=True)
        x, h1, h2, sig = cache
        loss, d_y, d_c = confidence_loss_and_grads(y_hr, x_hr, conf)

        grads = {k: np.zeros_like(v) for k, v in p.items()}
        # confidence head
        d_z = d_c * (1.0 - CONF_FLOOR) * sig * (1.0 - sig)
        grads["conf.w"] += np.einsum("hw,fhw->f", d_z[0], h2)
        grads["conf.b"] += d_z.sum()
        d_h2 = p["conf.w"][:, None, None] * d_z[0]
        # feature head (residual, so d_y flows straight through)
        grads["feat.w"] += np.einsum("chw,fhw->cf", d_y, h2)
        grads["feat.b"] += d_y.sum(axis=(1, 2))
        d_h2 += np.einsum("cf,chw->fhw", p["feat.w"], d_y)
        # trunk
        d_a2 = d_h2 * (1.0 - h2 * h2)
        dw2, db2, d_h1 = _conv3x3_backward(d_a2, h1, p["conv2.w"])
        grads["conv2.w"] += dw2
        grads["conv2.b"] += db2
        d_a1 = d_h1 * (1.0 - h1 * h1)
        dw1, db1, _ = _conv3x3_backward(d_a1, x, p["conv1.w"])
        grads["conv1.w"] += dw1
        grads["conv1.b"] += db1
        return loss, grads


# ---------------------------------------------------------------------------
# training

class Adam:
    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float = 1e-3):
        self.params, self.lr = params, lr
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict):
        self.t += 1
        bc1 = 1.0 - self.B1 ** self.t
        bc2 = 1.0 - self.B2 ** self.t
        for k, g in grads.items():
            self.m[k] = self.B1 * self.m[k] + (1.0 - self.B1) * g
            self.v[k] = self.B2 * self.v[k] + (1.0 - self.B2) * g * g
            self.params[k] -= self.lr * (self.m[k] / bc1) / (
                np.sqrt(self.v[k] / bc2) + self.EPS)


def train_toy(params: dict, objective, steps: int, lr: float = 1e-3,
              seed: int = 0) -> list[float]:
    """Adam loop over a seeded objective; returns the loss trace.

    objective(rng) must return (loss, grads) for a freshly sampled batch.
    Non-finite losses abort with NumericError instead of being swallowed.
    """
    if steps < 1:
        raise ConfigError("step count must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    opt = Adam(params, lr=lr)
    trace = []
    for _ in range(steps):
        loss, grads = objective(rng)
        if not np.isfinite(loss):
            raise NumericError(f"training diverged, loss={loss}")
        trace.append(loss)
        opt.step(grads)
    return trace


def make_grm_objective(model: GlobalRestorer, pair_sampler):
    """objective for train_toy: pair_sampler(rng) -> (y_lr, x_hr)."""
    def objective(rng):
        y_lr, x_hr = pair_sampler(rng)
        return model.loss_and_grads(y_lr, x_hr)
    return objective


def make_dit_gaussian_objective(model: PatchDiT, schedule: NoiseSchedule,
                                stats: GaussianOracleStats, batch: int = 8):
    """x0-prediction MSE objective on linear-Gaussian toy data."""
    shape = (model.channels, model.patch, model.patch)
    std = np.sqrt(stats.var)

    def objective(rng):
        total = 0.0
        grads = None
        for _ in range(batch):
            x0 = stats.mean + std * rng.standard_normal(shape)
            t = int(rng.integers(1, schedule.T + 1))
            eps = rng.standard_normal(shape)
            x_t = forward_sample(schedule, x0, t, eps)
            loss, g = model.loss_and_grads(x_t, t, x0)
            total += loss
            if grads is None:
                grads = g
            else:
                for k in grads:
                    grads[k] += g[k]
        for k in grads:
            grads[k] /= batch
        return total / batch, grads
    return objective
