"""Golden guard for PatchDiT float32 inference: fixed-seed outputs, pinned.

A rewrite of the PatchDiT forward must leave these digests of
`PatchDiT.__call__` outputs unchanged.  The outputs pass through BLAS GEMMs
and numpy's exp2 and tanh, so the digests pin the environment they were
recorded in (x86-64, numpy 2.4.6, OpenBLAS 0.3.31); on another BLAS or libm
they need re-recording, and a change that alters them on the recording
environment changes output bits.  perfbench/golden_dit.npz guards the same
path only to within 1e-3.
"""
import hashlib

import numpy as np
import pytest

from patchscaler.models import PatchDiT
from patchscaler.rtm import RetrievalResult


def _prompt(rng, k, patch):
    priors = rng.standard_normal((k, 1, patch, patch)).astype(np.float32)
    sims = np.sort(rng.uniform(0.1, 1.0, k))[::-1].astype(np.float32)
    return RetrievalResult(indices=np.arange(k), similarities=sims, priors=priors)


def _bench_case():
    # the benchmark's DiT: patch 16, width 64, depth 2, 4 heads; attention
    # items of one patch, all 6 in one inference chunk, K = 4 prompts
    dit = PatchDiT(channels=1, patch=16, width=64, depth=2, heads=4, seed=0)
    rng = np.random.Generator(np.random.PCG64(31))
    x = rng.standard_normal((6, 1, 16, 16)).astype(np.float32)
    a, b, c = (_prompt(rng, 4, 16) for _ in range(3))
    return dit, x, [a, None, b, None, c, a]


def _chunked_case():
    # 144 tokens and 4 heads: attention items of (1 << 18) // (4 * 144 * 144)
    # = 3 patches, so the 10 patches, one inference chunk, make self-attention
    # items of 3, 3, 3 and 1; the second item has no prompt, the others mix
    # K = 3 prompts with None
    dit = PatchDiT(channels=1, patch=12, width=32, depth=2, heads=4, seed=1)
    rng = np.random.Generator(np.random.PCG64(32))
    x = rng.standard_normal((10, 1, 12, 12)).astype(np.float32)
    a, b = _prompt(rng, 3, 12), _prompt(rng, 3, 12)
    return dit, x, [a, None, b, None, None, None, b, a, None, a]


CASES = {"bench": _bench_case, "chunked": _chunked_case}


@pytest.mark.parametrize("t", [1, 500, 1000])
@pytest.mark.parametrize("case", sorted(CASES))
def test_dit_inference_golden(case, t):
    dit, x, prompts = CASES[case]()
    out = dit(x, t, prompts)
    assert out.dtype == np.float32 and out.shape == x.shape
    assert hashlib.sha256(out.tobytes()).hexdigest() == GOLDEN[case, t]


GOLDEN = {
    ("bench", 1):
        "a43d5cfabe4889688f045f6ccb12179d604c262a168f2441d3d26143bebe7c99",
    ("bench", 500):
        "a08836c67a09d36ac767376d613d134c48448b6fe5df669d1dc5c1a57291d24e",
    ("bench", 1000):
        "3324766f586ee98f6344a37bae5f22a613b81eb04de52b46ea36a75aec1c0bc3",
    ("chunked", 1):
        "a6a3a65b9abb659068e5a5a9196b743b5de02a66683e58ca4889953e1211f62c",
    ("chunked", 500):
        "6797b0afdabe2e652ddb8cac012be6a3791af65adc482dda174a1a3e401ec9fa",
    ("chunked", 1000):
        "477765e55db0ac16875f951f59f8275968461912fbaaa8fd6bc75431a946fe96",
}
