"""Patch-adaptive group sampling: grouped ladders, NFE accounting."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .confidence import GroupLabel
from .errors import ConfigError, NumericError
from .schedule import (NoiseSchedule, make_substeps, reverse_step,
                       truncated_forward)

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


def _patch_rng(seed: int, index: int) -> np.random.Generator:
    # noise depends only on (run seed, patch index) so group scheduling
    # cannot change results
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def run_group(denoiser, s: NoiseSchedule, patches, tau: int, n: int,
              prompts=None, seed: int = 0, indices=None) -> np.ndarray:
    """Truncated-forward initialization then one n-step reverse ladder for
    the whole group.

    The patches form one (B, c, V, V) batch, so each ladder step is one
    denoiser call on B patches: exactly n evaluations per patch, none for
    an empty group.  Noise is drawn per patch from (seed, patch index), so
    results are order independent.  A non-finite sample raises NumericError.
    """
    y0 = np.asarray(patches)
    ladder = make_substeps(tau, n)  # rejects n > tau, even for an empty group
    if indices is None:
        indices = range(len(y0))
    if len(indices) != len(y0) or (prompts is not None and len(prompts) != len(y0)):
        raise ConfigError("prompts/indices must align with patches")
    if not len(y0):
        return y0
    eps = np.empty(y0.shape)
    for e, idx in zip(eps, indices):
        _patch_rng(seed, idx).standard_normal(out=e)
    eps = eps.astype(y0.dtype, copy=False)
    x = truncated_forward(s, y0, tau, eps)
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
        results[idx] = run_group(denoiser, s, patches[idx], tau, n,
                                 prompts=[prompts[i] for i in idx], seed=seed,
                                 indices=idx)
    report = PgsReport(
        group_counts=group_counts,
        group_nfe=group_nfe,
        total_nfe=sum(group_nfe.values()),
        unified_nfe=len(patches) * steps[2],
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return results, report

