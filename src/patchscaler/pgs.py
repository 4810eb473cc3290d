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


def _patch_rng(seed: int, indices, out: np.ndarray) -> None:
    """Fill out[k] with the standard normals of
    Generator(PCG64(SeedSequence([seed, indices[k]]))), same bits, so noise
    depends only on (run seed, patch index), never on group scheduling.

    One reused PCG64 takes each patch's hashed words as PCG64's seeding
    does: inc = initseq << 1 | 1, state = (inc + initstate) * mult + inc.
    An index of 2^32 or more hashes two entropy words, so it takes the
    per-patch SeedSequence.
    """
    words = iter(_seed_words(seed, np.array(
        [i for i in indices if i < 1 << 32], np.uint32)).tolist())
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for e, i in zip(out, indices):
        w0, w1, w2, w3 = next(words) if i < 1 << 32 else \
            np.random.SeedSequence([seed, i]).generate_state(4, np.uint64).tolist()
        inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _M128
        bitgen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                        "state": {"state": state, "inc": inc}}
        gen.standard_normal(out=e)


def run_group(denoiser, s: NoiseSchedule, patches, tau: int, n: int,
              indices, prompts=None, seed: int = 0) -> np.ndarray:
    """Truncated-forward initialization then one n-step reverse ladder for
    the whole group.

    The patches form one (B, c, V, V) batch, so each ladder step is one
    denoiser call on B patches: exactly n evaluations per patch, none for
    an empty group.  Noise for patches[k] is drawn from (seed, indices[k]),
    its index in the image, so results are order independent; a negative
    seed or index raises ConfigError.  A non-finite sample raises
    NumericError.
    """
    y0 = np.asarray(patches)
    ladder = make_substeps(tau, n)  # rejects n > tau, even for an empty group
    if len(indices) != len(y0) or (prompts is not None and len(prompts) != len(y0)):
        raise ConfigError("prompts/indices must align with patches")
    if seed < 0 or any(i < 0 for i in indices):
        raise ConfigError("seed and patch indices must be >= 0")
    if not len(y0):
        return y0
    eps = np.empty(y0.shape)
    _patch_rng(operator.index(seed), indices, eps)
    eps = eps.astype(y0.dtype, copy=False)
    x = forward_sample(s, y0, tau, eps)  # the truncated-forward start
    for t, t_next in zip(ladder, ladder[1:]):
        x0_hat = denoiser(x, t, prompts)
        x = reverse_step(s, x, x0_hat, t, t_next)
    if not np.isfinite(x).all():
        raise NumericError("sampled patches are not finite")
    return x


def run_pgs(denoiser, s: NoiseSchedule, patches, qmap, taus, steps,
            prompts=None, seed: int = 0):
    """Partition patches by difficulty and sample each group.

    taus and steps are (simple, medium, hard) tuples: group g samples from
    intermediate step taus[g] with steps[g] denoiser calls per patch and is
    written at its indices into one float64 (N, c, V, V) result.
    """
    patches = np.asarray(patches)
    if len(qmap) != len(patches):
        raise ConfigError("qmap must label every patch")
    if prompts is None:
        prompts = [None] * len(patches)
    t0 = time.perf_counter()
    results = np.empty(patches.shape)
    group_counts, group_nfe = {}, {}
    for label, tau, n in zip(GroupLabel, taus, steps, strict=True):
        idx = [i for i, lab in enumerate(qmap) if lab is label]
        group_counts[label] = len(idx)
        group_nfe[label] = len(idx) * n
        results[idx] = run_group(denoiser, s, patches[idx], tau, n, idx,
                                 prompts=[prompts[i] for i in idx], seed=seed)
    report = PgsReport(
        group_counts=group_counts,
        group_nfe=group_nfe,
        total_nfe=sum(group_nfe.values()),
        unified_nfe=len(patches) * steps[2],
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return results, report

