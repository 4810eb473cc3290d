"""superresolve's bits and NFE ledger do not depend on how its work is split.

Patches are sampled independently, so no tuning constant of models or pgs may
move an output bit: the test draws them all, with the usable-CPU count, and
compares the output bytes and the PgsReport ledger with those at the defaults.
Every upsampled grid is at least 80 cells wide: a GRM conv band of under ~75
cells may take another OpenBLAS kernel (models._conv3x3_forward).
"""
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchscaler.models import GaussianOracleDenoiser, GaussianOracleStats, PatchDiT
from patchscaler.pipeline import PipelineConfig, make_scene, superresolve
from patchscaler.rtm import TextureExtractor, build_memory

from conftest import on_workers


@functools.cache
def _dit_setup(patch):
    # a tiny PatchDiT and a memory of 8 entries of that patch size
    rng = np.random.Generator(np.random.PCG64(patch))
    source = list(rng.standard_normal((16, 1, patch, patch)).astype(np.float32))
    memory = build_memory(source, TextureExtractor((1, patch, patch), seed=0), 8)
    return PatchDiT(channels=1, patch=patch, width=16, depth=1, heads=4, seed=patch), memory


def _run(grm, scene, seed):
    """superresolve's output bytes and ledger on scene (kind, size, scene seed):
    an oracle on an HR size x 96 scene of 16-cell patches, or the tiny DiT and
    its memory (K = 3), on short ladders, on a square scene of size-cell ones."""
    kind, size, scene_seed = scene
    if kind == "oracle":
        cfg = PipelineConfig(seed=seed)
        lr = make_scene(size, 96, seed=scene_seed, texture_frac=0.3).lr
        stats = GaussianOracleStats(mean=float(lr.mean()), var=max(float(lr.var()), 1e-6))
        sr, report = superresolve(cfg, lr, grm, GaussianOracleDenoiser(stats, cfg.schedule()))
    else:
        cfg = PipelineConfig(patch=size, overlap=size // 4, steps=(2, 3, 4), topk=3, seed=seed)
        side = -(-80 // size) * size
        lr = make_scene(side, side, seed=scene_seed, patch=size, texture_frac=0.3).lr
        dit, memory = _dit_setup(size)
        sr, report = superresolve(cfg, lr, grm, dit, memory)
    return sr.tobytes(), (report.group_counts, report.group_nfe, report.total_nfe,
                          report.unified_nfe)


_SCENES = st.one_of(
    st.tuples(st.just("oracle"), st.sampled_from([32, 64, 96, 128]), st.integers(0, 99)),
    st.tuples(st.just("dit"), st.sampled_from([8, 12, 16]), st.integers(0, 99)))


# each knob from 1 (one-patch chunks and attention items, one-row bands, one-band
# super-bands) to past its default (a whole group per chunk, one band per grid)
_KNOBS = {"pgs._CHUNK_CELLS": 1 << 16, "models._SCORES": 1 << 20, "models._ITEMS_PER_CPU": 8,
          "models._BAND_CELLS": 1 << 14, "models._SUPER_BAND_CELLS": 1 << 15}
_LOW = dict.fromkeys(_KNOBS, 1)


@settings(max_examples=12, deadline=None)
@given(scene=_SCENES, seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 4),
       knobs=st.fixed_dictionaries({k: st.integers(1, hi) for k, hi in _KNOBS.items()}))
@example(scene=("oracle", 96, 0), seed=3, workers=4, knobs=_LOW)
@example(scene=("dit", 8, 1), seed=3, workers=1, knobs=_LOW)
@example(scene=("dit", 16, 2), seed=5, workers=4, knobs=_LOW)
@example(scene=("dit", 12, 3), seed=7, workers=1, knobs=_KNOBS)
def test_superresolve_keeps_its_bits_at_every_tuning_knob(trained_grm, scene, seed, workers,
                                                          knobs):
    expected = _run(trained_grm, scene, seed)
    with pytest.MonkeyPatch.context() as m, on_workers(workers):
        for name, value in knobs.items():
            m.setattr(f"patchscaler.{name}", value)
        got = _run(trained_grm, scene, seed)
    assert got == expected
