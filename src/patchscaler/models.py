"""Toy neural components with hand-rolled forward/backward passes.

Contains the coarse restorer with a confidence head (GlobalRestorer), the
patch denoiser with texture-prompt cross-attention and time-conditioned
dimension-wise scaling (PatchDiT), a closed-form linear-Gaussian oracle
denoiser for verification, and a small Adam training loop.

Everything is plain numpy.  PatchDiT has one batched forward, which computes
in the dtype of the parameters it is given: training (``loss_and_grads``)
runs it in float64, so analytic gradients can be checked against central
finite differences, and inference (``PatchDiT.__call__``) in float32, both
through the same per-patch attention and feed-forward helpers.  Inference
and the GRM's conv trunk spread their work over every usable CPU.
"""
from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial

import numpy as np

from .confidence import CONF_FLOOR, confidence_loss_and_grads
from .errors import ConfigError, GridShapeError, NumericError, check_allocatable
from .schedule import NoiseSchedule, forward_sample


# ---------------------------------------------------------------------------
# time embedding

def time_embed(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a time step, (dim,), or of an array of steps,
    (..., dim); first half sin, second half cos."""
    if dim % 2:
        raise ConfigError("embedding dim must be even")
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = np.multiply.outer(t, freqs)
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=-1)


# ---------------------------------------------------------------------------
# work on every usable CPU

def _blas_threads():
    """Threads the OpenBLAS numpy loaded runs a large GEMM on; 1 if there is
    no OpenBLAS to ask."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    except OSError:
        return 1
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                return max(1, get())
    return 1


# Threads that _on_cpus shares items among, set by _workers() on first use.
# The pool holds up to one per usable CPU but one, as the calling thread runs
# one share itself; it is made with the module and starts a thread only when
# it is first handed a run.  Only untraced helpers run on it (the GRM's conv
# super-bands, the DiT's per-patch attention and feed-forward): a span a
# tracer opened on a pool thread would break the caller's one span stack.
_WORKERS = None
_pool = ThreadPoolExecutor(max(1, len(os.sched_getaffinity(0)) - 1),
                           thread_name_prefix="patchscaler")


def _workers():
    """Every CPU this process may use, divided by the threads BLAS runs each
    GEMM on.  Two pool threads that each call a two-thread OpenBLAS
    oversubscribe two CPUs: on a 2-vCPU VM a pool of two made `patchscaler
    sr --dit --rtm` on a 96x96 image 2.68 -> 3.88 s at OpenBLAS's default,
    and 1.92 -> 1.74 s with one BLAS thread (medians of 6 and 8 processes).
    Found on first use, not at import, as finding the BLAS reads a file."""
    global _WORKERS
    if _WORKERS is None:
        _WORKERS = max(1, len(os.sched_getaffinity(0)) // _blas_threads())
    return _WORKERS


def _on_cpus(runs, items):
    """Call run(item) once for every item of the sequence items, on up to
    len(runs) threads: runs[0] on the calling thread, the others on the pool.

    Each run takes the next item not yet taken from one shared iterator
    until none is left, so a thread the OS leaves waiting holds up at most
    the item it is on.  A run the pool has not started when the items run
    out is cancelled, not waited for, and a pool run's exception is raised
    here.  Every run computes under the caller's numpy error state, which
    numpy keeps per thread.  An array a pool thread allocates lands in that
    thread's malloc arena: the GRM's runs get every buffer from the caller,
    while the DiT's items allocate their temporaries where they run.
    """
    runs = runs[:max(1, len(items))]
    items, err = iter(items), np.geterr()

    def drain(run):
        with np.errstate(**err):
            # next() on the shared iterator is one C call, atomic under the GIL
            for item in items:
                run(item)
    futures = [_pool.submit(drain, run) for run in runs[1:]]
    try:
        drain(runs[0])
    finally:
        wait([fut for fut in futures if not fut.cancel()])
    for fut in futures:
        if not fut.cancelled():
            fut.result()


# ---------------------------------------------------------------------------
# multi-head attention (shared by self- and cross-attention)

def _split_heads(x: np.ndarray, heads: int) -> np.ndarray:
    # (..., n, d) -> (..., heads, n, d // heads)
    *lead, n, d = x.shape
    return x.reshape(*lead, n, heads, d // heads).swapaxes(-3, -2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *lead, h, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * dh)


_LOG2_E = float(np.log2(np.e))

# A score tensor of at most _SCORES elements (1 MB in float32) stays inside a
# per-core L2 cache; larger batches of patches (4 MB, or one whole PGS group)
# were slower.
_SCORES = 1 << 18
# Items per usable CPU in a PatchDiT inference chunk: each thread takes
# several from the shared iterator per attention or feed-forward, so the
# threads need not keep in step item by item.
_ITEMS_PER_CPU = 4


def _share(heads, n, m):
    """Patches of n queries on m keys whose attention scores, heads * n * m
    each, stay near _SCORES elements together: at least one."""
    return max(1, _SCORES // (heads * n * m))


def _patch_items(b, heads, n, m):
    """Slices of a batch of b patches of n queries on m keys into items of
    _share patches, but of no more than one worker's share of the batch: a
    patch's cross-attention on K prompt keys is a few small GEMMs, which
    gain on two threads only in items of several patches."""
    step = min(_share(heads, n, m), -(-b // _workers()))
    return [slice(s, s + step) for s in range(0, b, step)]


def _attn_forward(q_in, kv_in, p, pre, heads, want_cache=False):
    """Multi-head attention of (b, ..., n, d) queries on (b, ..., m, d) keys:
    the (b, ..., n, d) output, and with want_cache what _attn_backward needs
    (else None).

    The b patches fall into _patch_items, which _on_cpus runs through
    _attn_patches on every usable CPU; an item's output has the bits of the
    same patches run alone, so neither the split nor the thread moves them.
    With want_cache (training) the whole batch is one item on the calling
    thread, as the backward needs its cache.
    """
    dt = np.result_type(q_in, kv_in, *(p[pre + w] for w in (".wq", ".wk", ".wv", ".wo", ".bo")))
    out = np.empty(q_in.shape[:-1] + p[pre + ".wo"].shape[1:], dt)
    if want_cache:
        return out, _attn_patches(q_in, kv_in, p, pre, heads, out)
    _on_cpus([lambda s: _attn_patches(q_in[s], kv_in[s], p, pre, heads, out[s])] * _workers(),
             _patch_items(len(q_in), heads, q_in.shape[-2], kv_in.shape[-2]))
    return out, None


def _attn_patches(q_in, kv_in, p, pre, heads, out):
    """The attention of _attn_forward on one item, into out; returns its cache.

    Computes in the dtype of its inputs.  The scale log2(e) / sqrt(dh) goes
    on q, a tensor m / dh times smaller than the scores, so exp2 of the
    scaled scores is exp of the usual ones.  The scores are built key-major,
    (..., heads, m, n), so the max shift and the sum over keys run along
    rows in place: an item needs one score temporary, and the weights
    (..., heads, n, m) are a transposed view of it.  The weights are left
    unnormalised: their (..., heads, n, dh) product with v is divided by
    the sums over keys instead, which saves a pass over the scores.  The
    cache keeps the unnormalised weights and their sums, which
    _attn_backward normalises itself.  In float32, a whole PatchDiT call on
    the benchmark-size DiT stays within 4.9e-8 max abs of the float64
    forward (tested bound 1e-5).
    """
    q = q_in @ p[pre + ".wq"]
    k = kv_in @ p[pre + ".wk"]
    v = kv_in @ p[pre + ".wv"]
    qh, kh, vh = (_split_heads(a, heads) for a in (q, k, v))
    # a Python float: a numpy float64 scalar would promote float32 queries
    scale = float(1.0 / np.sqrt(qh.shape[-1]))
    qh = qh * (scale * _LOG2_E)
    at = kh @ qh.swapaxes(-1, -2)
    at -= at.max(axis=-2, keepdims=True)
    np.exp2(at, out=at)
    sums = at.sum(axis=-2)[..., None]  # (..., heads, n, 1)
    e = at.swapaxes(-1, -2)
    o = e @ vh
    o /= sums
    merged = _merge_heads(o)
    np.matmul(merged, p[pre + ".wo"], out=out)
    out += p[pre + ".bo"]
    return q_in, kv_in, qh, kh, vh, e, sums, merged, scale


def _feed_forward(h, p, pre, heads, want_cache=False):
    """h + tanh(h w1 + b1) w2 + b2 of a (b, n, d) batch h, and with
    want_cache the tanh layer (b, n, 2d) (else None), in the items of the
    batch's self-attention on every usable CPU."""
    w1, b1, w2, b2 = (p[f"{pre}.ff.{k}"] for k in ("w1", "b1", "w2", "b2"))
    u = np.empty_like(h)
    g = np.empty(h.shape[:-1] + w1.shape[1:], h.dtype) if want_cache else None

    def run(s):
        gs = np.matmul(h[s], w1, out=None if g is None else g[s])
        gs += b1
        np.tanh(gs, out=gs)
        us = np.matmul(gs, w2, out=u[s])
        us += h[s]
        us += b2
    _on_cpus([run] * _workers(), _patch_items(len(h), heads, h.shape[1], h.shape[1]))
    return u, g


def _linear_grads(grads, w, b, x, dy):
    """Add to grads the gradients of the weight w and bias b (None for no
    bias) of the layer x @ w + b, summed over leading dims."""
    dy = dy.reshape(-1, dy.shape[-1])
    grads[w] += x.reshape(-1, x.shape[-1]).T @ dy
    if b is not None:
        grads[b] += dy.sum(axis=0)


def _attn_backward(dout, cache, p, pre, grads, heads):
    q_in, kv_in, qh, kh, vh, e, sums, merged, scale = cache
    a = e / sums
    _linear_grads(grads, pre + ".wo", pre + ".bo", merged, dout)
    d_merged = dout @ p[pre + ".wo"].T
    d_oh = _split_heads(d_merged, heads)
    d_a = d_oh @ vh.swapaxes(-1, -2)
    d_vh = a.swapaxes(-1, -2) @ d_oh
    d_scores = a * (d_a - (d_a * a).sum(axis=-1, keepdims=True))
    d_qh = d_scores @ kh * scale
    # qh holds the queries scaled by log2(e) * scale: take log2(e) out again
    d_kh = d_scores.swapaxes(-1, -2) @ qh * np.log(2.0)
    dq, dk, dv = _merge_heads(d_qh), _merge_heads(d_kh), _merge_heads(d_vh)
    _linear_grads(grads, pre + ".wq", None, q_in, dq)
    _linear_grads(grads, pre + ".wk", None, kv_in, dk)
    _linear_grads(grads, pre + ".wv", None, kv_in, dv)
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

    Patches are independent, so inference spreads them over every usable
    CPU: each attention and feed-forward of a chunk hands its patches, in
    _patch_items, to _on_cpus.  The calling thread runs everything else,
    every traced call (_attn_forward, _encode_prompt) included, and the
    output bits do not depend on the thread count.  Training runs on the
    calling thread.
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
        d, f = width, 2 * width
        check_allocatable(f"width={width}", (d, f))  # before any draw: the d x 2d tables
        rng = np.random.Generator(np.random.PCG64(seed))
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

    def _chunks(self, x_t, prompts, items):
        """(slice, prompts) of each chunk of a (B, c, V, V) batch, prompts
        None or B entries: items items of _share patches each, so one
        item's self-attention scores stay inside a per-core L2 cache."""
        c, v = self.channels, self.patch
        if x_t.ndim != 4 or x_t.shape[1:] != (c, v, v):
            raise GridShapeError(f"expected a (B, {c}, {v}, {v}) batch, got {x_t.shape}")
        prompts = [None] * len(x_t) if prompts is None else prompts
        if len(prompts) != len(x_t):
            raise ConfigError(f"{len(prompts)} prompts for {len(x_t)} patches")
        step = items * _share(self.heads, v * v, v * v)
        return [(slice(s, s + step), prompts[s:s + step]) for s in range(0, len(x_t), step)]

    def _time_cond(self, t, p):
        """(te, 1 + s_in, [s_ca per block]): the time embedding of t and the
        scales it makes, in the dtype of p.  One step gives (d,) vectors;
        training gives a (b, 1) array of steps and gets (b, 1, d) ones."""
        te = time_embed(t, self.width).astype(p["time_in.w"].dtype)
        s_ca = [te @ p[f"b{i}.ca.ts.w"] + p[f"b{i}.ca.ts.b"] for i in range(self.depth)]
        return te, 1.0 + (te @ p["time_in.w"] + p["time_in.b"]), s_ca

    def forward(self, x, cond, prompts, p, want_cache=False):
        """Output of a (b, c, V, V) batch x at the time conditioning cond
        (see _time_cond) and b prompts, each None or a retrieval result, all
        of one length K; computed in the dtype of the parameters p, and with
        want_cache also what backward needs.

        Cross-attention sees only the patches with a prompt, their prompts
        stacked into one (k, K, d) batch.  Without want_cache each attention
        cache is dropped as soon as it is made.
        """
        b, c = len(x), self.channels
        te, s_in, s_ca = cond
        tokens = x.reshape(b, c, -1).swapaxes(1, 2).astype(p["embed.w"].dtype)  # (b, n, c)
        h0 = tokens @ p["embed.w"] + p["embed.b"]
        h = h0 * s_in
        idx = [i for i, pr in enumerate(prompts) if pr is not None]
        enc = [self._encode_prompt(prompts[i], p) for i in idx]
        pt = np.stack([e for e, _ in enc]) if idx else None
        blocks = []
        for i in range(self.depth):
            pre = f"b{i}"
            # only training keeps attention caches: one held through the
            # feed-forward made float32 inference 36-44% slower under glibc's
            # default malloc settings.  Each residual sum goes into the fresh
            # update (a + b == b + a), which leaves the cached block input as
            # it was.
            u, sa = _attn_forward(h, h, p, pre + ".sa", self.heads, want_cache)
            u += h
            h = u
            ca_out = ca = s_b = None
            if idx:
                s_b = s_ca[i] if s_ca[i].ndim == 1 else s_ca[i][idx]
                ca_out, ca = _attn_forward(h[idx], pt, p, pre + ".ca", self.heads, want_cache)
                h[idx] += ca_out * s_b
            u, g = _feed_forward(h, p, pre, self.heads, want_cache)
            if want_cache:
                blocks.append((sa, ca_out, ca, s_b, h, g))
            h = u
        out = (h @ p["out.w"] + p["out.b"]).swapaxes(1, 2).reshape(x.shape)
        return (out, (tokens, te, h0, s_in, idx, enc, blocks, h)) if want_cache else out

    def __call__(self, x_t: np.ndarray, t: int, prompts=None) -> np.ndarray:
        """Denoise a (B, c, V, V) batch at step t; prompts is None or B prompts,
        each None or a retrieval result, all of one length K per call.

        The forward runs in float32 in _chunks of _ITEMS_PER_CPU items per
        usable CPU, with the parameters cast and the time conditioning
        computed once per call; the output stays within a tested bound of the
        float64 forward.
        """
        chunks = self._chunks(x_t, prompts, _ITEMS_PER_CPU * _workers())
        p = {k: a.astype(np.float32) for k, a in self.params.items()}
        cond = self._time_cond(t, p)
        out = np.empty(x_t.shape, np.float32)
        for s, pr in chunks:
            out[s] = self.forward(x_t[s], cond, pr, p)
        return out.astype(x_t.dtype, copy=False)

    # -- backward -----------------------------------------------------------

    def backward(self, d_out: np.ndarray, cache, grads: dict):
        """Add to grads the parameter gradients of a scalar loss, given d_out,
        its gradient w.r.t. the output of a float64 forward with want_cache
        at a (b, 1) array of steps."""
        p = self.params
        tokens, te, h0, s_in, idx, enc, blocks, h_final = cache
        dy = d_out.reshape(len(d_out), self.channels, -1).swapaxes(1, 2)  # (b, n, c)
        _linear_grads(grads, "out.w", "out.b", h_final, dy)
        dh = dy @ p["out.w"].T
        d_pt = 0.0  # summed over the blocks' cross-attention

        for i in reversed(range(self.depth)):
            b = f"b{i}"
            sa_cache, ca_out, ca_cache, s_b, h_ca, g = blocks[i]
            # feed-forward
            d_g = dh @ p[f"{b}.ff.w2"].T
            _linear_grads(grads, f"{b}.ff.w2", f"{b}.ff.b2", g, dh)
            d_u = d_g * (1.0 - g * g)
            _linear_grads(grads, f"{b}.ff.w1", f"{b}.ff.b1", h_ca, d_u)
            dh = dh + d_u @ p[f"{b}.ff.w1"].T
            # cross-attention with time scaling, on the prompted patches
            if idx:
                d_hca = dh[idx]
                d_sb = (d_hca * ca_out).sum(axis=1, keepdims=True)  # (k, 1, d)
                _linear_grads(grads, f"{b}.ca.ts.w", f"{b}.ca.ts.b", te[idx], d_sb)
                d_q, d_kv = _attn_backward(d_hca * s_b, ca_cache, p, f"{b}.ca",
                                           grads, self.heads)
                dh[idx] += d_q
                d_pt += d_kv
            # self-attention
            d_q, d_kv = _attn_backward(dh, sa_cache, p, f"{b}.sa",
                                       grads, self.heads)
            dh = dh + d_q + d_kv

        # prompt encoder
        if idx:
            tp = np.stack([tp for _, (tp, _) in enc])  # (k, K, c V V)
            sims = np.stack([sims for _, (_, sims) in enc])
            d_lin = d_pt * sims[..., None]
            _linear_grads(grads, "prompt.w", "prompt.b", tp, d_lin)

        # embedding-time scaling
        d_h0 = dh * s_in
        d_sin = (dh * h0).sum(axis=1, keepdims=True)  # (b, 1, d)
        _linear_grads(grads, "time_in.w", "time_in.b", te, d_sin)
        _linear_grads(grads, "embed.w", "embed.b", tokens, d_h0)

    def loss_and_grads(self, x_t: np.ndarray, t, target: np.ndarray,
                       prompts=None):
        """MSE of a (B, c, V, V) batch to its targets, and its parameter
        gradients, at one step t or one per patch; in float64, in _chunks of
        one item, each one's forward and then its backward on the calling
        thread."""
        chunks = self._chunks(x_t, prompts, 1)
        t = np.broadcast_to(t, len(x_t))[:, None]
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}
        loss = 0.0
        for s, pr in chunks:
            cond = self._time_cond(t[s], self.params)
            out, cache = self.forward(x_t[s], cond, pr, self.params, want_cache=True)
            diff = out - target[s]
            loss += float(np.sum(diff * diff))
            self.backward(2.0 * diff / x_t.size, cache, grads)
        return loss / x_t.size, grads


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


# A GRM grid of fewer cells than _MIN_THREADED_CELLS (256x256) keeps its conv
# trunk on the calling thread: its conv takes a few ms.  In 50 s benchmark
# runs at 96x96 (2 vCPUs) a process whose conv had used the second thread
# read about +10% per image and +37% on set-up against one that had not;
# ten pairs whose DiT uses the pool there read set-up +7%, inside the
# spread of set-up between processes.
_MIN_THREADED_CELLS = 1 << 16


def _conv3x3_forward(x, w, b, tanh=False, sink=None, then=None):
    # The GRM's conv trunk: the 3x3 conv (w, b) of x and, with then =
    # (w2, b2, sink2), the 3x3 conv (w2, b2) of its output; tanh applies to
    # both.  im2col + GEMM in bands of max(1, 4096 // (width * k)) output
    # rows, k = _workers() (1 on a small grid, see above), so the k column
    # buffers together stay near 4096 cells, the fastest single band probed
    # at 512x512, where the whole column matrix would take ~300 MB.
    # The rows fall into super-bands: one band for one conv, and for two
    # the fewest whole bands of at least 2^13 cells, a last one of under a
    # band joining the one above.  _on_cpus hands them out to k runs, k
    # capped at the super-band count, each with column, result and input
    # buffers of its own that the caller allocates; at k = 1 the pool
    # starts no thread.
    # For a super-band [r0, r1) of two convs a run computes the first conv's
    # rows [r0 - 1, r1 + 1) into a zero-bordered buffer of its own and the
    # second's rows [r0, r1) from it, so no whole hidden layer is made and
    # only the two halo rows are computed twice.  Each conv runs a
    # super-band in the bands it has on the whole grid, the halo rows joining
    # its first and last band: a band of its own, under ~75 cells, would
    # move the bits (see below).
    # A band's channels-first (c, 3, 3, rows, width) column buffer is filled
    # from the 3x3 windows of its zero-bordered input rows in one copy.  The
    # GEMM stays (cells, 9c) @ (9c, f), on a transposed view of the column
    # buffer, so the (c, di, dj) reduction runs through the BLAS kernels of
    # a plain im2col product, and neither the band height nor the thread
    # that runs a band moves the bits.  The faster (f, 9c) @ (9c, cells)
    # runs a band's trailing cells through other kernels and changes bits;
    # so does a band of under ~75 cells with c >= 4 here, as OpenBLAS picks
    # its small-matrix kernel by operand layout (every band of a grid 75 or
    # more wide has at least 75 cells).
    # Each band's (cells, f) result gets the bias, and with tanh=True the
    # tanh, and while still in cache goes to its conv's sink(r, o) as o, a
    # channels-last (rows, width, f) view of the rows its super-band owns
    # (not the halo), r the first of them; the trunk then returns None.  The
    # first of two convs may have no sink.  A sink runs on the thread that
    # made the band, touches only those rows and, like the bands, allocates
    # no array.  One conv without a sink puts its bands into a new
    # C-contiguous (f, h, w) array, which is returned.  The threads run only
    # _conv_super_band and the sinks, which a tracer does not wrap.
    c, h_, w_ = x.shape
    y = None
    if sink is None and then is None:
        y = np.empty((len(w), h_, w_))

        def sink(r, o):
            y[:, r:r + len(o)] = o.transpose(2, 0, 1)
    convs = [(w, b, sink)] + ([then] if then else [])
    n = len(convs)
    layers = [(cw.reshape(len(cw), -1).T, cb, cs) for cw, cb, cs in convs]
    k = _workers() if h_ * w_ >= _MIN_THREADED_CELLS else 1
    band = max(1, 4096 // (w_ * k))
    sup = band if n == 1 else band * -(-(1 << 13) // (band * w_))
    starts = range(0, max(1, h_ - band + 1), sup)
    k = min(k, len(starts))
    # conv j's input channels, most input rows of a super-band, most band cells
    cin = [c] + [len(cw) for cw, _, _ in convs[:-1]]
    rows = [min(h_, sup + band - 1) + 2 * (n - j) for j in range(n)]
    cells = [min(h_, band + 2 * (n - 1 - j)) * w_ for j in range(n)]
    runs = [partial(_conv_super_band, x, layers, sup, band, tanh,
                    [np.zeros((ci, r, w_ + 2)) for ci, r in zip(cin, rows)],
                    np.empty(max(9 * ci * m for ci, m in zip(cin, cells))),
                    np.empty(max(m * len(cw) for m, (cw, _, _) in zip(cells, convs))))
            for _ in range(k)]
    _on_cpus(runs, starts)
    return y


def _conv_super_band(x, layers, sup, band, tanh, srcs, buf, o, r0):
    """The super-band of _conv3x3_forward that starts at row r0: rows of x
    into srcs[0], then each conv band by band, its input's 3x3 windows into
    buf and the GEMM into o, the result into the next conv's srcs entry and
    to the conv's sink."""
    h_, w_ = x.shape[1:]
    n = len(layers)
    # win[:, di, dj, i, jj] is srcs[j][:, i + di, jj + dj]
    wins = [np.lib.stride_tricks.as_strided(
        s, (len(s), 3, 3, s.shape[1] - 2, w_), s.strides + s.strides[1:])
        for s in srcs]
    r1 = h_ if r0 + sup + band > h_ else r0 + sup
    # srcs[j] row i holds row r0 - n + j + i of conv j's input, zero past
    # either end of the grid; its first and last columns stay zero
    a, z = max(0, r0 - n), min(h_, r1 + n)
    xb = srcs[0]
    xb[:, :a - r0 + n] = 0.0
    xb[:, a - r0 + n:z - r0 + n, 1:-1] = x[:, a:z]
    xb[:, z - r0 + n:r1 - r0 + 2 * n] = 0.0
    for j, (wt, b, sink) in enumerate(layers):
        m = n - 1 - j  # halo rows conv j adds at either end
        a, z = max(0, r0 - m), min(h_, r1 + m)
        ci, f = len(srcs[j]), wt.shape[1]
        nxt = srcs[j + 1] if j + 1 < n else None
        if nxt is not None:
            nxt[:, :a - r0 + m] = 0.0
            nxt[:, z - r0 + m:r1 - r0 + 2 * m] = 0.0
        for s in range(r0, r1, band):
            lo = a if s == r0 else s
            hi = z if s + band >= r1 else s + band
            # output row r's window is wins[j] row r - r0 + m
            nc = (hi - lo) * w_
            cols = buf[:ci * 9 * nc].reshape(ci, 3, 3, hi - lo, w_)
            cols[...] = wins[j][:, :, :, lo - r0 + m:hi - r0 + m]
            ob = o[:nc * f].reshape(nc, f)
            np.matmul(cols.reshape(ci * 9, nc).T, wt, out=ob)
            ob += b
            if tanh:
                np.tanh(ob, out=ob)
            ob = ob.reshape(hi - lo, w_, f)
            if nxt is not None:
                nxt[:, lo - r0 + m:hi - r0 + m, 1:-1] = ob.transpose(2, 0, 1)
            if sink is not None:
                own = max(lo, r0)
                sink(own, ob[own - lo:min(hi, r1) - lo])


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


def _heads_sink(p, x, y_hr, conf, h2, sig):
    """The sink conv2's bands hand their channels-last (rows, w, f) tanh
    result to: it writes those rows of y_hr = x + feat.w h2 + feat.b and
    conf = floor + (1 - floor) sigmoid(conf.w h2 + conf.b), and of h2 and
    sig unless they are None, in place, so a pool thread allocates no array.

    Each einsum sums over f, the contiguous axis here as in a whole
    channels-last h2, and each elementwise step is that of the whole-grid
    expression, so the bits are those of the heads run on a whole
    channels-last h2.
    """
    fw, fb, cw, cb = p["feat.w"], p["feat.b"][:, None], p["conf.w"], p["conf.b"][0]

    def sink(r, o):
        rows = slice(r, r + len(o))
        if h2 is not None:
            h2[rows] = o
        o = o.reshape(-1, o.shape[-1])
        y = y_hr[:, rows].reshape(len(fw), -1)  # views: a band's rows are contiguous
        np.einsum("cf,nf->cn", fw, o, out=y)
        y += fb
        y += x[:, rows].reshape(y.shape)
        z = conf[0, rows].reshape(-1)
        np.einsum("f,nf->n", cw, o, out=z)
        z += cb
        s = z if sig is None else sig[0, rows].reshape(-1)
        np.negative(z, out=s)
        np.exp(s, out=s)
        s += 1.0
        np.divide(1.0, s, out=s)
        np.multiply(s, 1.0 - CONF_FLOOR, out=z)
        z += CONF_FLOOR
    return sink


class GlobalRestorer:
    """Two 3x3 conv layers with tanh, then per-cell feature and confidence heads.

    The feature head predicts a residual correction to the input; the
    confidence head maps through a floored sigmoid so log C stays finite.
    """

    def __init__(self, channels: int = 1, hidden: int = 16, seed: int = 0):
        self.channels = channels
        c, f = channels, hidden
        check_allocatable(f"hidden={hidden}", (f, f, 3, 3))  # before any draw: conv2.w
        rng = np.random.Generator(np.random.PCG64(seed))
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
        """(y_hr, conf), and with want_cache the training cache (x, h1, h2,
        sig) after them.

        One call of the conv trunk runs both convs in row super-bands, each
        computing conv1's rows for conv2 with one halo row at either end,
        and conv2's bands compute the heads from their channels-last tanh
        result while it is in cache (see _heads_sink), so inference never
        holds a whole hidden layer; with want_cache the bands also write h1
        and h2, channels-last, for the backward.
        """
        if y_lr.ndim != 3 or y_lr.shape[0] != self.channels:
            raise GridShapeError(f"expected ({self.channels}, h, w), got {y_lr.shape}")
        p = self.params
        x = y_lr.astype(np.float64)
        c, h, w = x.shape
        f = len(p["conv1.w"])
        y_hr, conf = np.empty((c, h, w)), np.empty((1, h, w))
        h1 = h2 = sig = keep_h1 = None
        if want_cache:
            h1, h2, sig = np.empty((h, w, f)), np.empty((h, w, f)), np.empty((1, h, w))

            def keep_h1(r, o):
                h1[r:r + len(o)] = o
        _conv3x3_forward(x, p["conv1.w"], p["conv1.b"], tanh=True, sink=keep_h1,
                         then=(p["conv2.w"], p["conv2.b"],
                               _heads_sink(p, x, y_hr, conf, h2, sig)))
        if not want_cache:
            return y_hr, conf
        # the backward's summation order follows the memory layout of h2
        # and h1: both stay channels-last, the layout the checkpoint and
        # golden digests were made with, so trained weights keep their bits
        return y_hr, conf, (x, h1.transpose(2, 0, 1), h2.transpose(2, 0, 1), sig)

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
    Non-finite losses abort with NumericError instead of being swallowed,
    as do overflows and invalid values on the calling thread: a step too
    large can overflow a hidden layer that tanh then saturates, leaving
    the loss finite.
    """
    if steps < 1:
        raise ConfigError("step count must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    opt = Adam(params, lr=lr)
    trace = []
    with np.errstate(over="raise", invalid="raise"):
        try:
            for _ in range(steps):
                loss, grads = objective(rng)
                if not np.isfinite(loss):
                    raise NumericError(f"training diverged, loss={loss}")
                trace.append(loss)
                opt.step(grads)
        except FloatingPointError as e:
            raise NumericError(f"training diverged: {e}") from None
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
        x0, x_t = np.empty((2, batch) + shape)
        t = np.empty(batch, np.int64)
        for i in range(batch):
            x0[i] = stats.mean + std * rng.standard_normal(shape)
            t[i] = rng.integers(1, schedule.T + 1)
            x_t[i] = forward_sample(schedule, x0[i], int(t[i]), rng.standard_normal(shape))
        return model.loss_and_grads(x_t, t, x0)
    return objective
