"""Golden guard for the real GRM: fixed-seed outputs and gradients, pinned.

A rewrite of the GRM convs must leave these digests, of forward outputs and
of one training step's gradients, unchanged.  Unlike tests/test_golden.py,
these values pass through BLAS GEMMs and numpy's tanh and exp, so the
digests pin the environment they were recorded in (x86-64, numpy 2.4.6,
OpenBLAS 0.3.31); on another BLAS or libm they need re-recording, and a
change that alters them on the recording environment changes output bits.
"""
import hashlib

import numpy as np
import pytest

from patchscaler.models import GlobalRestorer


def _digest(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


# (1, 70, 300): conv bands of at most 13 rows (4096 // 300), not dividing 70;
# (3, 50, 200): a 3-channel input in 20-row bands
@pytest.mark.parametrize("shape,seed", [((1, 70, 300), 21), ((3, 50, 200), 22)])
def test_grm_forward_golden(shape, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    y_hr, conf = GlobalRestorer(shape[0], hidden=16, seed=0).forward(
        rng.standard_normal(shape))
    assert y_hr.shape == shape and conf.shape == (1,) + shape[1:]
    assert (_digest(y_hr), _digest(conf)) == GOLDEN[shape]


def test_grm_gradients_golden():
    # one training step's loss and gradients: the layout the backward sees
    # decides its summation order, so this pins GRM training bit for bit
    rng = np.random.Generator(np.random.PCG64(23))
    y_lr, x_hr = rng.standard_normal((2, 1, 48, 48))
    loss, grads = GlobalRestorer(1, hidden=16, seed=0).loss_and_grads(y_lr, x_hr)
    digest = hashlib.sha256(b"".join(grads[k].tobytes() for k in sorted(grads)))
    assert loss == 3.10501819058019
    assert digest.hexdigest() == GRADS_SHA256


GRADS_SHA256 = "192c03a5f30b4fce1f0b8ef2f517b76e18f545f612b309cdaa788ec621271c39"
GOLDEN = {
    (1, 70, 300): (
        "c768dc6e3ac7dff914257d3c0c6347527ef9bf16cbddd8d2c5ba138defb341df",
        "6b276ad98c5492cae0897d7529bd1be6528820ba18196f1c47ce1111e9c1cd6b",
    ),
    (3, 50, 200): (
        "5abd054830d51820f1c4f6cc67d24acb53433e3a864ba8f8fa4dbdaec8d11b92",
        "90b388d852feab43eb0bba0f2da8c47971aa88b95b1f5196d918a2adb1065187",
    ),
}
