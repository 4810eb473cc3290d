"""End-to-end acceptance checks.

Each test exercises one headline guarantee and prints a single
"[PASS] criterion N: ..." line (or [FAIL] before the assertion fires), so
`pytest -s tests/test_acceptance.py` doubles as an acceptance report.
"""
import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist

from patchscaler.checkpoint import load_params, save_params
from patchscaler.confidence import GroupLabel, Thresholds, build_qmap
from patchscaler.errors import (DimensionMismatchError, MagicMismatchError,
                                TruncatedFileError)
from patchscaler.models import (GaussianOracleDenoiser, GaussianOracleStats,
                                GlobalRestorer, PatchDiT)
from patchscaler.pgs import run_group
from patchscaler.pipeline import make_scene, nearest_upsample
from patchscaler.rtm import (RetrievalResult, TextureMemory,
                             farthest_point_sample, load_memory,
                             retrieve_topk, save_memory)
from patchscaler.schedule import forward_sample
from patchscaler.tiling import decompose, recompose

from conftest import forward_step


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} ({detail})")
    assert ok, f"criterion {num}: {desc} ({detail})"


def test_criterion_1_forward_process_moments(schedule1000):
    s = schedule1000
    betas = np.linspace(1e-4, 0.02, 1000)  # schedule1000's ramp
    rng = np.random.Generator(np.random.PCG64(100))
    n = 10_000
    worst = 0.0
    for t_star in (10, 100, 500, 1000):
        x = np.full(n, 1.3)
        for t in range(1, t_star + 1):
            x = forward_step(betas, x, t, rng.standard_normal(n))
        ab = s.alpha_bar(t_star)
        se_mean = np.sqrt(1 - ab) / np.sqrt(n)
        se_var = (1 - ab) * np.sqrt(2.0 / (n - 1))
        z_mean = abs(x.mean() - np.sqrt(ab) * 1.3) / se_mean
        z_var = abs(x.var(ddof=1) - (1 - ab)) / se_var
        worst = max(worst, z_mean, z_var)
        # closed-form sampler agrees on the same draw count
        y = forward_sample(s, np.full(n, 1.3), t_star, rng.standard_normal(n))
        worst = max(worst, abs(y.mean() - np.sqrt(ab) * 1.3) / se_mean,
                    abs(y.var(ddof=1) - (1 - ab)) / se_var)
    _report(1, "iterated diffusion matches closed-form moments",
            worst <= 3.0, f"worst z-score {worst:.2f} <= 3")


def test_criterion_2_adaptive_budget(bench_run):
    rep = bench_run["report_pgs"]
    total = sum(rep.group_counts.values())
    simple_frac = rep.group_counts[GroupLabel.SIMPLE] / total
    ok = (simple_frac >= 0.4
          and rep.ratio <= 0.7
          and rep.total_nfe == bench_run["calls_pgs"]
          and bench_run["report_unified"].total_nfe == bench_run["calls_unified"])
    _report(2, "grouped sampling cuts audited denoiser calls",
            ok, f"simple {simple_frac:.2f}, nfe ratio {rep.ratio:.3f}, "
                f"ledger {rep.total_nfe} == counted {bench_run['calls_pgs']}")


def test_criterion_3_truncation_tradeoff(schedule1000):
    d = GaussianOracleDenoiser(GaussianOracleStats(0.0, 1.0), schedule1000)
    rng = np.random.Generator(np.random.PCG64(101))
    trials = 120
    mse = {}
    for tau, n in ((100, 2), (400, 8), (1000, 20)):
        good = bad = 0.0
        for i in range(trials):
            x0 = rng.standard_normal((1, 8, 8)).astype(np.float32)
            out = run_group(d, schedule1000, [x0], tau, n, seed=1000 + i,
                            indices=range(1))
            good += np.mean((out[0] - x0) ** 2)
            out = run_group(d, schedule1000, [x0 + 2.0], tau, n, seed=1000 + i,
                            indices=range(1))
            bad += np.mean((out[0] - x0) ** 2)
        mse[tau] = (good / trials, bad / trials)
    r_good = mse[400][0] / mse[1000][0]
    r_bad = mse[100][1] / mse[1000][1]
    ok = r_good <= 1.05 and r_bad >= 1.2
    _report(3, "shallow starts keep quality for good estimates only",
            ok, f"good-estimate mse(400)/mse(1000) {r_good:.3f} <= 1.05, "
                f"biased-estimate mse(100)/mse(1000) {r_bad:.3f} >= 1.2")


def test_criterion_4_exact_retrieval():
    rng = np.random.Generator(np.random.PCG64(102))
    worst = 0.0
    for trial in range(100):
        n, dim = 2000, 32
        keys = rng.standard_normal((n, dim)).astype(np.float32)
        keys /= np.linalg.norm(keys, axis=1, keepdims=True)
        mem = TextureMemory(keys=keys, values=np.zeros((n, 1, 2, 2), np.float32))
        q = rng.standard_normal(dim)
        sims = keys.astype(np.float64) @ (q / np.linalg.norm(q))
        oracle = sorted(range(n), key=lambda i: (-sims[i], i))
        for k in (1, 4, 16):
            res = retrieve_topk(mem, np.zeros(1), lambda p: q, k)
            assert list(res.indices) == oracle[:k]
            worst = max(worst, float(np.max(np.abs(res.similarities - sims[oracle[:k]]))))
    _report(4, "top-K retrieval exactly matches a full-sort oracle",
            worst <= 1e-6, f"100 memories, worst similarity gap {worst:.2e}")


def test_criterion_5_fps_matches_oracle():
    rng = np.random.Generator(np.random.PCG64(103))
    for trial in range(100):
        n = int(rng.integers(8, 257))
        m = int(rng.integers(1, min(n, 64) + 1))
        start = int(rng.integers(n))
        keys = rng.standard_normal((n, int(rng.integers(2, 9))))
        if trial % 5 == 0:
            keys[n // 2] = keys[0]  # force exact distance ties
        # FPS starts from key 0: relabel the keys so the drawn start is key 0
        keys = np.roll(keys, -start, axis=0)
        dist = cdist(keys, keys)
        chosen = [0]
        for _ in range(m - 1):
            gap = dist[:, chosen].min(axis=1)
            chosen.append(int(np.flatnonzero(gap == gap.max())[0]))
        got = list(farthest_point_sample(keys, m))
        assert got == chosen, f"trial {trial}"
    _report(5, "farthest point sampling matches the greedy max-min oracle",
            True, "100 random instances incl. forced ties")


def test_criterion_6_tiling_roundtrip():
    rng = np.random.Generator(np.random.PCG64(104))
    worst = 0.0
    for _ in range(200):
        v = int(rng.integers(2, 17))
        overlap = int(rng.integers(0, v))
        h = int(rng.integers(v, 70))
        w = int(rng.integers(v, 70))
        c = int(rng.integers(1, 4))
        x = rng.standard_normal((c, h, w)).astype(np.float32)
        patches, grid = decompose(x, v, overlap)
        worst = max(worst, float(np.max(np.abs(recompose(patches, grid) - x))))
    _report(6, "overlap-blend recomposition inverts decomposition",
            worst <= 1e-6, f"200 random shapes, worst error {worst:.2e}")


def _fd_sweep(loss_fn, params, grads, h=1e-5):
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn()
            flat[i] = orig - h
            lm = loss_fn()
            flat[i] = orig
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6))
    return worst


def test_criterion_7_full_gradient_check():
    rng = np.random.Generator(np.random.PCG64(105))
    dit = PatchDiT(channels=1, patch=4, width=8, depth=2, heads=2, seed=7)
    x_t = rng.standard_normal((1, 4, 4))
    target = rng.standard_normal((1, 4, 4))
    priors = rng.standard_normal((3, 1, 4, 4)).astype(np.float32)
    prompt = RetrievalResult(indices=np.arange(3),
                             similarities=np.array([0.9, 0.5, 0.2], np.float32),
                             priors=priors)
    _, g = dit.loss_and_grads(x_t, 77, target, prompt)
    worst_dit = _fd_sweep(lambda: dit.loss_and_grads(x_t, 77, target, prompt)[0],
                          dit.params, g)

    grm = GlobalRestorer(channels=1, hidden=4, seed=7)
    y_lr = rng.standard_normal((1, 6, 6))
    x_hr = rng.standard_normal((1, 6, 6))
    _, g = grm.loss_and_grads(y_lr, x_hr)
    worst_grm = _fd_sweep(lambda: grm.loss_and_grads(y_lr, x_hr)[0],
                          grm.params, g)
    worst = max(worst_dit, worst_grm)
    _report(7, "analytic gradients match central differences over every parameter",
            worst <= 1e-4, f"denoiser {worst_dit:.2e}, restorer {worst_grm:.2e}")


def test_criterion_8_confidence_minimizer():
    rng = np.random.Generator(np.random.PCG64(106))
    worst = 0.0
    for _ in range(1000):
        e2 = float(rng.uniform(0.05, 25.0))
        eta = float(rng.uniform(0.1, 5.0))
        res = minimize_scalar(lambda c: c * e2 - eta * np.log(c),
                              bounds=(1e-9, 1.0), method="bounded",
                              options={"xatol": 1e-10})
        expected = min(1.0, eta / e2)
        worst = max(worst, abs(res.x - expected))
    _report(8, "confidence objective minimizer matches min(1, eta/e^2)",
            worst <= 1e-6, f"1000 draws, worst gap {worst:.2e}")


def test_criterion_9_difficulty_map_fidelity(trained_grm):
    th = Thresholds()
    smooth_total = smooth_good = tex_total = tex_good = 0
    for seed in range(5):
        scene = make_scene(64, 64, seed=40 + seed, patch=16,
                           texture_frac=0.5, factor=2)
        lr_up = nearest_upsample(scene.lr, 2)
        _, conf = trained_grm(lr_up)
        _, grid = decompose(lr_up, 16, 0)  # patch-aligned with texture tiles
        qmap = build_qmap(conf, grid, th)
        for (top, left), label in zip(grid.coords, qmap):
            if scene.texture_mask[top, left]:
                tex_total += 1
                tex_good += label is not GroupLabel.SIMPLE
            else:
                smooth_total += 1
                smooth_good += label is GroupLabel.SIMPLE
    fs = smooth_good / smooth_total
    ft = tex_good / tex_total
    _report(9, "learned confidence separates smooth from textured patches",
            fs >= 0.9 and ft >= 0.9,
            f"smooth->simple {smooth_good}/{smooth_total}, "
            f"textured->not-simple {tex_good}/{tex_total}")


def test_criterion_10_quality_parity(bench_run):
    ratio = bench_run["mse_pgs"] / bench_run["mse_unified"]
    _report(10, "adaptive run stays within 5% of unified-budget quality",
            ratio <= 1.05,
            f"mse ratio {ratio:.3f} at nfe ratio {bench_run['report_pgs'].ratio:.3f}")


def test_criterion_11_persistence_integrity(tmp_path):
    rng = np.random.Generator(np.random.PCG64(107))
    keys = rng.standard_normal((12, 8)).astype(np.float32)
    keys /= np.linalg.norm(keys, axis=1, keepdims=True)
    mem = TextureMemory(keys=keys,
                        values=rng.standard_normal((12, 1, 4, 4)).astype(np.float32))
    path = tmp_path / "mem.rtm"
    save_memory(mem, path)
    back = load_memory(path)
    ok = np.array_equal(back.keys, mem.keys) and np.array_equal(back.values, mem.values)

    raw = path.read_bytes()
    for payload, exc in ((b"ZZZZ" + raw[4:], MagicMismatchError),
                         (raw[:-3], TruncatedFileError),
                         (raw + b"\x00", DimensionMismatchError)):
        bad = tmp_path / "bad.rtm"
        bad.write_bytes(payload)
        with pytest.raises(exc):
            load_memory(bad)

    ckpt = tmp_path / "m.psck"
    grm = GlobalRestorer(channels=1, hidden=4, seed=11)
    save_params(ckpt, grm.params)
    once = load_params(ckpt)
    save_params(ckpt, once)
    twice = load_params(ckpt)
    stable = all(np.array_equal(once[k], twice[k]) for k in once)
    _report(11, "stores survive roundtrips and reject distinct corruptions",
            ok and stable, "bit-identical memory, idempotent checkpoint, "
            "3 corruption classes detected")
