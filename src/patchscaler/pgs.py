"""Patch-adaptive group sampling: grouped ladders, NFE accounting."""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass

import numpy as np

from .confidence import GroupLabel
from .errors import ConfigError, NumericError
from .schedule import NoiseSchedule, forward_sample, make_substeps, reverse_step

@dataclass
class PgsReport:
    """Denoiser-call ledger for one sampling run."""

    group_counts: dict
    group_nfe: dict
    total_nfe: int
    unified_nfe: int
    wall_ms: float = 0.0

    @property
    def ratio(self) -> float:
        return self.total_nfe / self.unified_nfe if self.unified_nfe else float("nan")

    def to_text(self) -> str:
        lines = []
        for g in (GroupLabel.SIMPLE, GroupLabel.MEDIUM, GroupLabel.HARD):
            lines.append(f"count_{g.value} {self.group_counts.get(g, 0)}")
            lines.append(f"nfe_{g.value} {self.group_nfe.get(g, 0)}")
        lines.append(f"nfe_total {self.total_nfe}")
        lines.append(f"nfe_unified {self.unified_nfe}")
        lines.append(f"ratio {self.ratio:.6f}")
        lines.append(f"wall_ms {self.wall_ms:.3f}")
        return "\n".join(lines) + "\n"


# O'Neill's seed_seq hash as numpy's SeedSequence runs it, and PCG64's
# 128-bit LCG multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _hasher(h: int, mult: int):
    # one seed_seq hash chain; its constant never sees the data, so one
    # call hashes a whole group's words
    def hashmix(v: np.ndarray) -> np.ndarray:
        nonlocal h
        v = v ^ h
        h = h * mult & _M32
        v = v * h
        return v ^ v >> 16
    return hashmix


def _seed_words(seed: int, index: np.ndarray) -> np.ndarray:
    """SeedSequence([seed, i]).generate_state(4, np.uint64) for every uint32
    i of index, as one (B, 4) array: each hash round runs on the whole group."""
    ent = [np.full(index.shape, seed >> b & _M32, np.uint32)
           for b in range(0, max(seed.bit_length(), 1), 32)] + [index]
    ent += [np.zeros_like(index)] * (4 - len(ent))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(v) for v in ent[:4]]

    def mix(dst, v):
        r = _MIX_L * pool[dst] - _MIX_R * hashmix(v)
        pool[dst] = r ^ r >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for v in ent[4:]:  # entropy past the 4-word pool (seeds of 2^96 and up)
        for dst in range(4):
            mix(dst, v)
    output = _hasher(_INIT_B, _MULT_B)
    out = np.stack([output(pool[k % 4]) for k in range(8)], axis=-1)
    return out.astype("<u4").view("<u8").astype(np.uint64)


def _patch_rng(gen: np.random.Generator, words: np.ndarray, out: np.ndarray) -> None:
    """Fill out[k] with the standard normals of
    Generator(PCG64(SeedSequence([seed, i]))), same bits, where words[k] is
    _seed_words(seed, [i])[0]: noise depends only on (run seed, patch
    index), never on group scheduling.

    gen's PCG64 takes each patch's hashed words as PCG64's seeding does:
    inc = initseq << 1 | 1, state = (inc + initstate) * mult + inc.
    """
    bitgen = gen.bit_generator
    for e, (w0, w1, w2, w3) in zip(out, words.tolist()):
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                        "state": {"state": state, "inc": inc}}
        gen.standard_normal(out=e)


# Cells a ladder chunk holds: 64 patches of 16x16x1.  A chunk's working
# arrays (x, the denoiser's estimate, reverse_step's two) then stay in L2
# across its whole ladder; whole groups of ~1400 patches at 512x512 stream
# several MB per step, and chunks of 32, 128 or 256 such patches ran slower.
_CHUNK_CELLS = 1 << 14


def run_group(denoiser, s: NoiseSchedule, patches, tau: int, n: int,
              indices, prompts=None, seed: int = 0) -> np.ndarray:
    """Truncated-forward initialization then an n-step reverse ladder for
    a group of (c, V, V) patches, a sequence of arrays or one stack, in
    chunks of at most _CHUNK_CELLS cells (one patch at least).

    Each chunk is stacked into a (b, c, V, V) batch, noised and walked down
    the whole ladder, one denoiser call per step, before the next is
    stacked, so the group is never held as one input or noise array:
    exactly n evaluations per patch, none for an empty group.  The seed
    words of every (seed, indices[k]), patches[k]'s index in the image, are
    hashed once for the group; each chunk draws its noise from its slice of
    them, so results are order independent and do not depend on the
    chunking.  A negative seed, or an index outside [0, 2**32), raises
    ConfigError.  A non-finite sample raises NumericError.
    """
    ladder = make_substeps(tau, n)  # rejects n > tau, even for an empty group
    if len(indices) != len(patches) or (prompts is not None and len(prompts) != len(patches)):
        raise ConfigError("prompts/indices must align with patches")
    if seed < 0 or any(not 0 <= i < 1 << 32 for i in indices):
        raise ConfigError("seed must be >= 0 and patch indices in [0, 2**32)")
    if not len(patches):
        return np.asarray(patches)
    words = _seed_words(operator.index(seed), np.array(indices, np.uint32))
    gen = np.random.Generator(np.random.PCG64(0))  # reseeded per patch
    size = max(1, _CHUNK_CELLS // np.size(patches[0]))
    out = None
    for lo in range(0, len(patches), size):
        chunk = slice(lo, lo + size)
        y0 = np.asarray(patches[chunk])
        eps = np.empty(y0.shape)
        _patch_rng(gen, words[chunk], eps)
        chunk_prompts = None if prompts is None else prompts[chunk]
        # the truncated-forward start
        x = forward_sample(s, y0, tau, eps.astype(y0.dtype, copy=False))
        for t, t_next in zip(ladder, ladder[1:]):
            x = reverse_step(s, x, denoiser(x, t, chunk_prompts), t, t_next)
        if not np.isfinite(x).all():
            raise NumericError("sampled patches are not finite")
        if out is None:  # the dtype the ladder returns
            out = np.empty((len(patches),) + y0.shape[1:], x.dtype)
        out[chunk] = x
    return out


def run_pgs(denoiser, s: NoiseSchedule, patches, qmap, taus, steps,
            prompts=None, seed: int = 0):
    """Partition patches by difficulty and sample each group.

    patches is a sequence of (c, V, V) arrays, such as decompose's views;
    each group gets the list of its own and run_group stacks them a chunk
    at a time, so the N patches are never stacked whole.  taus and steps
    are (simple, medium, hard) tuples: group g samples from intermediate
    step taus[g] with steps[g] denoiser calls per patch, its noise drawn
    per chunk from seed words hashed once for the group, and is written at
    its indices into one float64 (N, c, V, V) result.
    """
    if len(qmap) != len(patches):
        raise ConfigError("qmap must label every patch")
    if prompts is None:
        prompts = [None] * len(patches)
    elif len(prompts) != len(patches):
        raise ConfigError("prompts/indices must align with patches")
    t0 = time.perf_counter()
    results = np.empty((len(patches), *np.shape(patches[0])) if len(patches) else 0)
    group_counts, group_nfe = {}, {}
    for label, tau, n in zip(GroupLabel, taus, steps, strict=True):
        idx = [i for i, lab in enumerate(qmap) if lab is label]
        group_counts[label] = len(idx)
        group_nfe[label] = len(idx) * n
        group = run_group(denoiser, s, [patches[i] for i in idx], tau, n, idx,
                          prompts=[prompts[i] for i in idx], seed=seed)
        if idx:  # an empty group's result has no patch shape
            results[idx] = group
        del group  # before the next group samples
    report = PgsReport(
        group_counts=group_counts,
        group_nfe=group_nfe,
        total_nfe=sum(group_nfe.values()),
        unified_nfe=len(patches) * steps[2],
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return results, report
