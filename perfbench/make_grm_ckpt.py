"""Train the GRM checkpoint the benchmark loads, and print its digest.

The recipe matches the `trained_grm` test fixture: GlobalRestorer(1, 16,
seed 0), 2000 Adam steps at lr 3e-3 on 48x48 synthetic pairs.  Training
takes about half a minute, which is why the result is committed instead of
being rebuilt during benchmark set-up.  An untrained GRM labels every patch
Hard, so the Simple/Medium/Hard split the sampler exploits only appears
with these weights.

    PYTHONPATH=src python3 perfbench/make_grm_ckpt.py [OUT]
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

from patchscaler import checkpoint
from patchscaler.models import GlobalRestorer, make_grm_objective, train_toy
from patchscaler.pipeline import make_scene, nearest_upsample

DEFAULT_OUT = Path(__file__).resolve().parent / "grm.psck"


def _pair_sampler(rng):
    sc = make_scene(48, 48, seed=int(rng.integers(1 << 31)), patch=16, factor=2)
    return nearest_upsample(sc.lr, 2), sc.hr


def main(out: Path) -> None:
    grm = GlobalRestorer(channels=1, hidden=16, seed=0)
    trace = train_toy(grm.params, make_grm_objective(grm, _pair_sampler),
                      steps=2000, lr=3e-3, seed=0)
    checkpoint.save_params(out, grm.params)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    print(f"loss {trace[0]:.4f} -> {trace[-1]:.4f}; wrote {out}\nsha256 {digest}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_OUT)
