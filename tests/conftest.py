from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from patchscaler import models
from patchscaler.checkpoint import load_params, restore_into
from patchscaler.models import (GaussianOracleDenoiser, GaussianOracleStats,
                                GlobalRestorer, PatchDiT,
                                make_dit_gaussian_objective, train_toy)
from patchscaler.pipeline import PipelineConfig, make_scene, superresolve
from patchscaler.schedule import build_linear_schedule

GRM_CKPT = Path(__file__).resolve().parents[1] / "perfbench" / "grm.psck"


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


@contextmanager
def on_workers(k):
    """models._WORKERS at k with a fresh pool of k - 1 threads, shut down after."""
    saved, pool = (models._WORKERS, models._pool), models.ThreadPoolExecutor(max(1, k - 1))
    models._WORKERS, models._pool = k, pool
    try:
        yield pool
    finally:
        pool.shutdown()
        models._WORKERS, models._pool = saved


def forward64(dit, x, t, prompts=None):
    """PatchDiT's forward of a (b, c, V, V) batch in float64, at one step t
    or one step per patch: the reference its float32 inference is held to."""
    p = dit.params
    return dit.forward(x, dit._time_cond(t, p), prompts or [None] * len(x), p)


def forward_step(betas, x_prev, t, eps):
    """One forward transition: sqrt(1 - beta_t) x_{t-1} + sqrt(beta_t) eps,
    beta_t = betas[t - 1] (the schedule stores only the alpha_bars)."""
    beta = float(betas[t - 1])
    return np.sqrt(1.0 - beta) * x_prev + np.sqrt(beta) * eps


@pytest.fixture(scope="session")
def schedule1000():
    return build_linear_schedule(1000)


@pytest.fixture(scope="session")
def dit_f32_tol():
    """Max abs difference allowed between PatchDiT's float32 inference and
    its float64 forward; the benchmark-size DiT measures 4.9e-8."""
    return 1e-5


@pytest.fixture(scope="session")
def trained_grm():
    """The benchmark's GRM: GlobalRestorer(1, 16, seed 0) after 2000 Adam
    steps on 48x48 scene pairs (perfbench/make_grm_ckpt.py rebuilds it)."""
    grm = GlobalRestorer(channels=1, hidden=16, seed=0)
    restore_into(grm, load_params(GRM_CKPT))
    return grm


@pytest.fixture(scope="session")
def trained_dit(schedule1000):
    dit = PatchDiT(channels=1, patch=4, width=32, depth=2, heads=4, seed=0)
    obj = make_dit_gaussian_objective(dit, schedule1000,
                                      GaussianOracleStats(0.0, 1.0), batch=8)
    train_toy(dit.params, obj, steps=1200, lr=3e-3, seed=0)
    return dit


@pytest.fixture(scope="session")
def mixed_scene():
    # texture fraction tuned so well over 40% of patches quantize as Simple
    return make_scene(96, 96, seed=7, patch=16, texture_frac=0.2, factor=2)


@pytest.fixture(scope="session")
def bench_run(trained_grm, mixed_scene):
    """Paired adaptive/unified runs with instrumented denoisers."""
    cfg = PipelineConfig(seed=3)
    stats = GaussianOracleStats(mean=float(mixed_scene.hr.mean()),
                                var=float(mixed_scene.hr.var()))
    oracle = GaussianOracleDenoiser(stats, cfg.schedule())

    counted_a = CountingDenoiser(oracle)
    sr_a, rep_a = superresolve(cfg, mixed_scene.lr, trained_grm, counted_a)

    cfg_u = PipelineConfig(seed=3, taus=(1000, 1000, 1000), steps=(20, 20, 20))
    counted_u = CountingDenoiser(oracle)
    sr_u, rep_u = superresolve(cfg_u, mixed_scene.lr, trained_grm, counted_u)

    return {
        "cfg": cfg,
        "sr_pgs": sr_a, "report_pgs": rep_a, "calls_pgs": counted_a.calls,
        "sr_unified": sr_u, "report_unified": rep_u,
        "calls_unified": counted_u.calls,
        "mse_pgs": float(np.mean((sr_a - mixed_scene.hr) ** 2)),
        "mse_unified": float(np.mean((sr_u - mixed_scene.hr) ** 2)),
    }
