"""Patch-adaptive group sampling: grouped ladders, NFE accounting."""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .confidence import GroupLabel
from .errors import ConfigError
from .schedule import (NoiseSchedule, make_substeps, reverse_step,
                       truncated_forward)

_ORDER = {label: i for i, label in enumerate(GroupLabel)}


@dataclass(frozen=True)
class GroupConfig:
    """Per-group (intermediate step tau, sampling step count n), each a
    (simple, medium, hard) tuple."""

    taus: tuple[int, int, int] = (400, 700, 1000)
    steps: tuple[int, int, int] = (8, 14, 20)

    def __post_init__(self):
        taus, steps = self.taus, self.steps
        if len(taus) != 3 or len(steps) != 3:
            raise ConfigError("taus and steps need one value per group (S, M, H)")
        if not (taus[0] <= taus[1] <= taus[2]):
            raise ConfigError(f"taus must be non-decreasing S<=M<=H, got {taus}")
        if not (steps[0] <= steps[1] <= steps[2]):
            raise ConfigError(f"step counts must be non-decreasing, got {steps}")
        for tau, n in zip(taus, steps):
            if n > tau:
                raise ConfigError(f"n={n} exceeds tau={tau}")

    def for_label(self, label: GroupLabel) -> tuple[int, int]:
        i = _ORDER[label]
        return self.taus[i], self.steps[i]


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


class CountingDenoiser:
    """Wraps a denoiser and counts patch evaluations, for honest NFE audits.

    A call on a (B, c, V, V) batch counts B evaluations.
    """

    def __init__(self, denoiser):
        self.denoiser = denoiser
        self.calls = 0

    def __call__(self, x_t, t, prompts=None):
        self.calls += len(x_t)
        return self.denoiser(x_t, t, prompts)


def _patch_rng(seed: int, index: int) -> np.random.Generator:
    # noise depends only on (run seed, patch index) so group scheduling
    # cannot change results
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, index])))


def run_group(denoiser, s: NoiseSchedule, patches, tau: int, n: int,
              prompts=None, seed: int = 0, indices=None) -> list[np.ndarray]:
    """Truncated-forward initialization then one n-step reverse ladder for
    the whole group.

    The patches are stacked into one (B, c, V, V) batch, so each ladder step
    is one denoiser call on B patches: exactly n evaluations per patch.
    Noise is drawn per patch from (seed, patch index), so results are order
    independent.
    """
    if n > tau:
        raise ConfigError(f"n={n} exceeds tau={tau}")
    if indices is None:
        indices = list(range(len(patches)))
    if len(indices) != len(patches) or (prompts is not None and len(prompts) != len(patches)):
        raise ConfigError("prompts/indices must align with patches")
    if not patches:
        return []
    ladder = make_substeps(tau, n)
    y0 = np.stack(patches)
    eps = np.stack([_patch_rng(seed, idx).standard_normal(y0.shape[1:])
                    for idx in indices]).astype(y0.dtype)
    x = truncated_forward(s, y0, tau, eps)
    for t, t_next in zip(ladder.steps, ladder.steps[1:]):
        x0_hat = denoiser(x, t, prompts)
        x = reverse_step(s, x, x0_hat, t, t_next)
    return list(x)


def run_pgs(denoiser, s: NoiseSchedule, patches, qmap, cfg: GroupConfig,
            prompts=None, seed: int = 0):
    """Partition patches by difficulty, sample each group, merge in order."""
    if len(qmap) != len(patches):
        raise ConfigError("qmap must label every patch")
    if prompts is None:
        prompts = [None] * len(patches)
    t0 = time.perf_counter()
    results: list[np.ndarray | None] = [None] * len(patches)
    group_counts, group_nfe = {}, {}
    for label in GroupLabel:
        idx = [i for i, lab in enumerate(qmap) if lab is label]
        group_counts[label] = len(idx)
        tau, n = cfg.for_label(label)
        group_nfe[label] = len(idx) * n
        if not idx:
            continue
        restored = run_group(denoiser, s, [patches[i] for i in idx], tau, n,
                             prompts=[prompts[i] for i in idx], seed=seed,
                             indices=idx)
        for i, r in zip(idx, restored):
            results[i] = r
    report = PgsReport(
        group_counts=group_counts,
        group_nfe=group_nfe,
        total_nfe=sum(group_nfe.values()),
        unified_nfe=len(patches) * cfg.for_label(GroupLabel.HARD)[1],
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    return results, report

