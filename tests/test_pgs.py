import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patchscaler import pgs
from patchscaler.confidence import GroupLabel
from patchscaler.errors import ConfigError
from patchscaler.models import (GaussianOracleDenoiser, GaussianOracleStats,
                                PatchDiT)
from patchscaler.pgs import run_group, run_pgs
from patchscaler.pipeline import PipelineConfig, _unified_cfg
from patchscaler.rtm import RetrievalResult
from patchscaler.schedule import forward_sample, make_substeps, reverse_step

from conftest import CountingDenoiser, forward64

S, M, H = GroupLabel.SIMPLE, GroupLabel.MEDIUM, GroupLabel.HARD
TAUS, STEPS = PipelineConfig.taus, PipelineConfig.steps  # the default table


def _oracle(schedule, var=1.0):
    return GaussianOracleDenoiser(GaussianOracleStats(0.0, var), schedule)


def _patches(rng, n, shape=(1, 4, 4)):
    return [rng.standard_normal(shape).astype(np.float32) for _ in range(n)]


def test_group_table_defaults():
    cfg = PipelineConfig()
    # (simple, medium, hard) tuples, indexed in GroupLabel order
    assert list(GroupLabel) == [S, M, H]
    assert (cfg.taus[0], cfg.steps[0]) == (400, 8)
    assert (cfg.taus[1], cfg.steps[1]) == (700, 14)
    assert (cfg.taus[2], cfg.steps[2]) == (1000, 20)


def test_group_table_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(taus=(800, 700, 1000))
    with pytest.raises(ConfigError):
        PipelineConfig(steps=(30, 14, 20))
    with pytest.raises(ConfigError):
        PipelineConfig(taus=(4, 700, 1000))  # n=8 > tau=4
    with pytest.raises(ConfigError):
        PipelineConfig(steps=(8, 14))


def test_run_group_single_step_single_call(schedule1000):
    rng = np.random.Generator(np.random.PCG64(0))
    counted = CountingDenoiser(_oracle(schedule1000))
    out = run_group(counted, schedule1000, _patches(rng, 3), tau=50, n=1,
                    indices=range(3))
    assert counted.calls == 3
    assert len(out) == 3 and out[0].shape == (1, 4, 4)


def test_run_group_call_budget(schedule1000):
    rng = np.random.Generator(np.random.PCG64(1))
    counted = CountingDenoiser(_oracle(schedule1000))
    run_group(counted, schedule1000, _patches(rng, 5), tau=400, n=8,
              indices=range(5))
    assert counted.calls == 40


def test_counting_denoiser_counts_patch_evaluations(schedule1000):
    shapes = []

    def denoiser(x_t, t, prompts=None):
        shapes.append(x_t.shape)
        return x_t

    counted = CountingDenoiser(denoiser)
    counted(np.zeros((5, 1, 4, 4)), 10)
    counted(np.zeros((2, 1, 4, 4)), 10, [None, None])
    assert counted.calls == 7
    # run_group walks the ladder once: one call on the whole group per step
    shapes.clear()
    counted = CountingDenoiser(denoiser)
    rng = np.random.Generator(np.random.PCG64(12))
    run_group(counted, schedule1000, _patches(rng, 5), tau=400, n=8,
              indices=range(5))
    assert counted.calls == 40 and shapes == [(5, 1, 4, 4)] * 8


def _serial_run_group(denoise_one, s, patches, tau, n, prompts, seed, indices):
    # one patch at a time, one denoiser call per patch and step
    ladder = make_substeps(tau, n)
    out = []
    for y0, prompt, idx in zip(patches, prompts, indices):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, idx])))
        x = forward_sample(s, y0, tau, rng.standard_normal(y0.shape).astype(y0.dtype))
        for t, t_next in zip(ladder, ladder[1:]):
            x = reverse_step(s, x, denoise_one(x, t, prompt), t, t_next)
        out.append(x)
    return out


@pytest.mark.parametrize("kind", ["oracle", "dit"])
def test_run_group_matches_serial_reference(schedule1000, kind, dit_f32_tol):
    rng = np.random.Generator(np.random.PCG64(13))
    patches = _patches(rng, 5)
    indices = [7, 2, 9, 0, 4]
    if kind == "oracle":
        d = _oracle(schedule1000, var=0.7)
        prompts = [None] * 5

        def one(x, t, prompt):
            return d(x, t)
    else:
        d = PatchDiT(channels=1, patch=4, width=16, depth=1, heads=2, seed=3)
        prior = RetrievalResult(indices=np.arange(2), similarities=np.array([0.9, 0.4]),
                                priors=rng.standard_normal((2, 1, 4, 4)).astype(np.float32))
        prompts = [prior, None, None, prior, None]

        def one(x, t, prompt):
            return forward64(d, x[None], t, [prompt])[0].astype(x.dtype)
    got = run_group(d, schedule1000, patches, 400, 8, prompts=prompts, seed=21,
                    indices=indices)
    ref = _serial_run_group(one, schedule1000, patches, 400, 8, prompts, 21, indices)
    # the DiT's batched inference runs in float32, its forward in float64
    tol = 0.0 if kind == "oracle" else dit_f32_tol
    for a, b in zip(got, ref, strict=True):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= tol


def test_run_group_deterministic(schedule1000):
    rng = np.random.Generator(np.random.PCG64(2))
    patches = _patches(rng, 4)
    d = _oracle(schedule1000)
    a = run_group(d, schedule1000, patches, 400, 8, seed=7, indices=range(4))
    b = run_group(d, schedule1000, patches, 400, 8, seed=7, indices=range(4))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = run_group(d, schedule1000, patches, 400, 8, seed=8, indices=range(4))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_run_group_errors(schedule1000):
    rng = np.random.Generator(np.random.PCG64(4))
    patches = _patches(rng, 2)
    d = _oracle(schedule1000)
    with pytest.raises(ConfigError):
        run_group(d, schedule1000, patches, tau=5, n=9, indices=range(2))
    with pytest.raises(ConfigError):
        run_group(d, schedule1000, patches, 400, 8, prompts=[None], indices=range(2))
    with pytest.raises(ConfigError):
        run_group(d, schedule1000, patches, 400, 8, indices=[0])


@pytest.mark.parametrize("seed, indices", [(-1, [0, 1]), (3, [0, -2]), (3, [0, 2**32])])
def test_run_group_rejects_negative_seed_or_index(schedule1000, seed, indices):
    rng = np.random.Generator(np.random.PCG64(14))
    with pytest.raises(ConfigError):
        run_group(_oracle(schedule1000), schedule1000, _patches(rng, 2), 400, 8,
                  seed=seed, indices=indices)


_SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**256 - 1))


@settings(max_examples=200, deadline=None)
@given(_SEEDS, st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
@example(0, [0, 2**32 - 1])
@example(7, [0, 2**32 - 1])
@example(2**33 + 5, [0, 2**32 - 1])
@example(2**100 + 1, [0, 2**32 - 1])
def test_seed_words_match_seed_sequence(seed, indices):
    got = pgs._seed_words(seed, np.array(indices, np.uint32))
    ref = [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64)
           for i in indices]
    assert got.dtype == np.uint64 and np.array_equal(got, ref)


def test_patch_rng_called_once_per_chunk(schedule1000, monkeypatch):
    # perfbench traces pgs._patch_rng by name as pgs.rng_ms, so it must stay
    # a module-level function.  run_group hashes a group's seed words once
    # and calls it once per chunk, with the words of that chunk's indices,
    # and walks each chunk down its whole ladder, one denoiser call per step,
    # before it stacks the next
    fill, hash_words = pgs._patch_rng, pgs._seed_words
    oracle = _oracle(schedule1000)

    def denoiser(x_t, t, prompts=None):
        batches.append(len(x_t))
        return oracle(x_t, t, prompts)

    def counted(gen, words, out):
        calls.append(words.copy())
        fill(gen, words, out)

    def counted_hash(seed, index):
        hashed.append(len(index))
        return hash_words(seed, index)

    monkeypatch.setattr(pgs, "_patch_rng", counted)
    monkeypatch.setattr(pgs, "_seed_words", counted_hash)
    rng = np.random.Generator(np.random.PCG64(16))
    patches = _patches(rng, 5)
    # a group per chunk at the default 2^14 cells; then two 1x4x4 patches a
    # chunk, so Simple's three run as 2 + 1 and Hard's two as one chunk; the
    # Simple ladder takes 8 steps and the Hard one 20
    for cells, chunks, sizes in ((pgs._CHUNK_CELLS, [[0, 2, 3], [1, 4]], [3] * 8 + [2] * 20),
                                 (2 * 16, [[0, 2], [3], [1, 4]],
                                  [2] * 8 + [1] * 8 + [2] * 20)):
        calls, hashed, batches = [], [], []
        monkeypatch.setattr(pgs, "_CHUNK_CELLS", cells)
        run_pgs(denoiser, schedule1000, patches, [S, H, S, S, H], TAUS, STEPS, seed=6)
        assert hashed == [3, 2]
        assert len(calls) == len(chunks) and batches == sizes
        for words, idx in zip(calls, chunks):
            assert np.array_equal(words, hash_words(6, np.array(idx, np.uint32)))


@pytest.mark.parametrize("stack", [False, True])
def test_run_group_of_several_chunks_keeps_the_serial_bits(schedule1000, monkeypatch, stack):
    # three 1x4x4 patches a chunk: ten patches run as 3 + 3 + 3 + 1, from a
    # list of patches or one stack, bit for bit as one patch at a time and
    # as one run_group call per patch
    monkeypatch.setattr(pgs, "_CHUNK_CELLS", 3 * 16)
    rng = np.random.Generator(np.random.PCG64(23))
    patches = _patches(rng, 10)
    indices = [12, 3, 40, 7, 0, 25, 9, 31, 18, 5]
    d = _oracle(schedule1000, var=0.6)
    got = run_group(d, schedule1000, np.stack(patches) if stack else patches, 700, 14,
                    indices, seed=4)
    ref = _serial_run_group(lambda x, t, prompt: d(x, t), schedule1000, patches, 700, 14,
                            [None] * 10, 4, indices)
    assert got.shape == (10, 1, 4, 4) and np.array_equal(got, ref)
    for k, i in enumerate(indices):
        solo = run_group(d, schedule1000, [patches[k]], 700, 14, [i], seed=4)
        assert np.array_equal(got[k], solo[0])


def test_run_pgs_rejects_a_short_prompt_list(schedule1000):
    rng = np.random.Generator(np.random.PCG64(19))
    with pytest.raises(ConfigError, match="prompts/indices must align"):
        run_pgs(_oracle(schedule1000), schedule1000, _patches(rng, 3),
                [S, M, S], TAUS, STEPS, prompts=[None])


def test_shallower_start_helps_good_estimates(schedule1000):
    # paired-seed comparison: when the coarse estimate is already close to
    # the truth, starting at tau=400 beats injecting full tau=1000 noise
    rng = np.random.Generator(np.random.PCG64(5))
    d = _oracle(schedule1000)
    err_short = err_long = 0.0
    for i in range(30):
        x0 = rng.standard_normal((1, 4, 4)).astype(np.float32)
        y0 = x0  # perfect coarse estimate
        a = run_group(d, schedule1000, [y0], 400, 8, seed=100 + i, indices=range(1))
        b = run_group(d, schedule1000, [y0], 1000, 20, seed=100 + i, indices=range(1))
        err_short += np.mean((a[0] - x0) ** 2)
        err_long += np.mean((b[0] - x0) ** 2)
    assert err_short < err_long


def test_run_pgs_nfe_accounting(schedule1000):
    rng = np.random.Generator(np.random.PCG64(6))
    patches = _patches(rng, 10)
    qmap = [S] * 5 + [M] * 3 + [H] * 2
    counted = CountingDenoiser(_oracle(schedule1000))
    _, report = run_pgs(counted, schedule1000, patches, qmap, TAUS, STEPS)
    assert report.group_counts == {S: 5, M: 3, H: 2}
    assert report.group_nfe == {S: 40, M: 42, H: 40}
    assert report.total_nfe == 122 == counted.calls
    assert report.unified_nfe == 200
    assert report.ratio == pytest.approx(0.61)


def test_run_pgs_matches_per_group_runs(schedule1000):
    # grouping is bookkeeping only: each patch's output equals a direct
    # run_group call with its own (tau, n) and index
    rng = np.random.Generator(np.random.PCG64(7))
    patches = _patches(rng, 6)
    qmap = [H, S, M, S, H, M]
    d = _oracle(schedule1000)
    results, _ = run_pgs(d, schedule1000, patches, qmap, TAUS, STEPS, seed=11)
    for i, label in enumerate(qmap):
        g = list(GroupLabel).index(label)
        tau, n = TAUS[g], STEPS[g]
        solo = run_group(d, schedule1000, [patches[i]], tau, n, seed=11,
                         indices=[i])
        assert np.array_equal(results[i], solo[0])


def test_run_pgs_empty_groups(schedule1000):
    rng = np.random.Generator(np.random.PCG64(8))
    patches = _patches(rng, 3)
    oracle, batches = _oracle(schedule1000), []

    def denoiser(x_t, t, prompts=None):
        batches.append(len(x_t))
        return oracle(x_t, t, prompts)

    results, report = run_pgs(denoiser, schedule1000, patches,
                              [S, S, S], TAUS, STEPS)
    assert report.group_counts == {S: 3, M: 0, H: 0}
    assert report.total_nfe == 24
    # the empty Medium and Hard groups cost no denoiser call
    assert batches == [3] * 8
    assert results.shape == (3, 1, 4, 4) and np.isfinite(results).all()
    with pytest.raises(ConfigError):
        run_pgs(_oracle(schedule1000), schedule1000, patches, [S, S], TAUS, STEPS)


def test_unified_cfg_is_all_hard(schedule1000):
    # the unified baseline gives every group the full tau=T, n_hard ladder,
    # so any labelling samples exactly like an all-Hard one
    rng = np.random.Generator(np.random.PCG64(9))
    patches = _patches(rng, 4)
    d = _oracle(schedule1000)
    cfg = _unified_cfg(PipelineConfig())
    assert cfg.taus == (1000,) * 3 and cfg.steps == (20,) * 3
    uni, rep_u = run_pgs(d, schedule1000, patches, [S, M, H, S], cfg.taus,
                         cfg.steps, seed=4)
    ref, rep_r = run_pgs(d, schedule1000, patches, [H] * 4, cfg.taus,
                         cfg.steps, seed=4)
    for a, b in zip(uni, ref):
        assert np.array_equal(a, b)
    assert rep_u.total_nfe == rep_u.unified_nfe == 80 == rep_r.total_nfe


def test_budget_monotone_in_steps(schedule1000):
    # spending more per-patch steps raises the audited call count linearly
    rng = np.random.Generator(np.random.PCG64(10))
    patches = _patches(rng, 4)
    prev = 0
    for n in (2, 8, 32):
        counted = CountingDenoiser(_oracle(schedule1000))
        _, report = run_pgs(counted, schedule1000, patches, [H] * 4,
                            (1000,) * 3, (n,) * 3)
        assert report.total_nfe == counted.calls == 4 * n
        assert report.total_nfe > prev
        prev = report.total_nfe


def test_shortcut_consistency_small_prior(schedule1000):
    # concentrated prior: the posterior mean pulls hard toward mu0, so a
    # short ladder from a perfect estimate lands where the long one does
    d = GaussianOracleDenoiser(GaussianOracleStats(0.0, 0.03 ** 2), schedule1000)
    x0 = np.zeros((1, 4, 4), np.float32)
    short = run_group(d, schedule1000, [x0], 400, 8, seed=3, indices=range(1))
    long_ = run_group(d, schedule1000, [x0], 1000, 20, seed=3, indices=range(1))
    assert np.max(np.abs(short[0] - long_[0])) <= 1e-3


def test_report_to_text(schedule1000):
    rng = np.random.Generator(np.random.PCG64(11))
    patches = _patches(rng, 4)
    _, report = run_pgs(_oracle(schedule1000), schedule1000, patches,
                        [S, M, H, H], TAUS, STEPS)
    text = report.to_text()
    assert "count_simple 1" in text
    assert "nfe_medium 14" in text
    assert "nfe_total 62" in text
    assert "nfe_unified 80" in text
    assert "ratio 0.775000" in text
    assert text.endswith("\n")
    assert report.wall_ms >= 0.0


def test_default_tables_consistent():
    cfg = PipelineConfig()
    assert cfg.taus[0] < cfg.taus[1] < cfg.taus[2]
    assert cfg.steps[0] < cfg.steps[1] < cfg.steps[2]
