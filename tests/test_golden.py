"""Golden guard: fixed-seed superresolve outputs and NFE ledgers, pinned.

Refactors of the pipeline must leave these digests and ledgers unchanged.
Inputs come from PCG64 draws and plain arithmetic only, and the models are
an oracle denoiser and an elementwise stub GRM, so no BLAS kernel or
vectorised transcendental touches the result and the digests hold across
machines.
"""
import hashlib

import numpy as np

from patchscaler.confidence import GroupLabel
from patchscaler.models import GaussianOracleDenoiser, GaussianOracleStats
from patchscaler.pipeline import PipelineConfig, superresolve


class BandGrm:
    """Identity restorer whose confidence falls in three column bands.

    Band values keep every patch mean clear of the default thresholds
    (0.95, 0.75), so the Simple/Medium/Hard split does not hinge on rounding.
    """

    def __call__(self, y_lr):
        _, h, w = y_lr.shape
        conf = np.full((1, h, w), 0.99)
        conf[:, :, w // 3:] = 0.80
        conf[:, :, 2 * w // 3:] = 0.35
        return y_lr.astype(np.float64), conf


def _lr(seed, h, w):
    rng = np.random.Generator(np.random.PCG64(seed))
    ramp = np.add.outer(np.arange(h) / h, np.arange(w) / w)[None]
    return (0.5 * ramp + 0.3 * rng.standard_normal((1, h, w))).astype(np.float32)


def _run(cfg, lr):
    denoiser = GaussianOracleDenoiser(GaussianOracleStats(0.0, 0.5), cfg.schedule())
    sr, report = superresolve(cfg, lr, BandGrm(), denoiser)
    ledger = {
        "counts": [report.group_counts[g] for g in GroupLabel],
        "nfe": [report.group_nfe[g] for g in GroupLabel],
        "total": report.total_nfe,
        "unified": report.unified_nfe,
    }
    return sr, hashlib.sha256(sr.tobytes()).hexdigest(), ledger


def test_golden_three_groups():
    sr, digest, ledger = _run(PipelineConfig(seed=11), _lr(1, 32, 32))
    assert sr.shape == (1, 64, 64) and sr.dtype == np.float32
    assert ledger == GOLDEN["three_groups"]["ledger"]
    assert digest == GOLDEN["three_groups"]["sha256"]


def test_golden_odd_size_no_colornorm():
    cfg = PipelineConfig(seed=12, colornorm=False)
    sr, digest, ledger = _run(cfg, _lr(2, 23, 21))
    assert sr.shape == (1, 46, 42) and sr.dtype == np.float32
    assert ledger == GOLDEN["odd_size"]["ledger"]
    assert digest == GOLDEN["odd_size"]["sha256"]


GOLDEN = {
    "three_groups": {
        "ledger": {"counts": [5, 10, 10], "nfe": [40, 140, 200],
                   "total": 380, "unified": 500},
        "sha256": "90677279ab898223a419d98873b866b736f0fbbf15b5e290fa8a94562a1bebfe",
    },
    "odd_size": {
        "ledger": {"counts": [4, 4, 8], "nfe": [32, 56, 160],
                   "total": 248, "unified": 320},
        "sha256": "1efb6f57d8fff9b73c41d80d6622daa61f98b9ebe82f1a2f3f67b0cbd5750323",
    },
}
