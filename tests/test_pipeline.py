import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from patchscaler import pipeline
from patchscaler.confidence import GroupLabel
from patchscaler.errors import (ConfigError, GridShapeError,
                                MagicMismatchError, NumericError, StageError,
                                TruncatedFileError)
from patchscaler.gridio import export_pnm, load_grid, save_grid
from patchscaler.models import (GaussianOracleDenoiser, GaussianOracleStats,
                                GlobalRestorer, PatchDiT)
from patchscaler.pipeline import (PipelineConfig, benchmark, coerce_field,
                                  format_benchmark, make_scene,
                                  nearest_upsample, parse_config_file,
                                  superresolve, synth_degrade)
from patchscaler.rtm import TextureExtractor, build_memory
from patchscaler.tiling import decompose

from conftest import on_workers
from test_golden import BandGrm, _lr


class FlatGrm:
    """Identity restorer with a uniform confidence map, for plumbing tests."""

    def __init__(self, conf=1.0):
        self.conf = conf

    def __call__(self, y_lr):
        return y_lr.copy(), np.full_like(y_lr[:1], self.conf)


def _oracle(cfg, scene):
    stats = GaussianOracleStats(mean=float(scene.hr.mean()),
                                var=max(float(scene.hr.var()), 1e-6))
    return GaussianOracleDenoiser(stats, cfg.schedule())


def test_synth_degrade_identity_and_factor():
    rng = np.random.Generator(np.random.PCG64(0))
    hr = rng.standard_normal((1, 8, 8)).astype(np.float32)
    assert np.array_equal(synth_degrade(hr, 0.0, 0.0, 1), hr)
    lr = synth_degrade(hr, 0.5, 0.0, 2)
    assert lr.shape == (1, 4, 4)
    with pytest.raises(GridShapeError):
        synth_degrade(hr, 0.0, 0.0, 3)


def test_synth_degrade_noise_level():
    hr = np.zeros((1, 64, 64), np.float32)
    lr = synth_degrade(hr, 0.0, 0.2, 1, seed=1)
    assert np.std(lr) == pytest.approx(0.2, rel=0.05)


def _scipy_blur(x, sigma):
    """The reference pipeline._gaussian_blur reproduces, one channel at a time."""
    return np.stack([gaussian_filter(ch, sigma, mode="nearest") for ch in x])


# sigma 0.1 has radius 0, 2.5 radius 10: sides of 1, 2 and 7 are shorter
# than the larger radii, so their padding replicates one edge cell many times
@pytest.mark.parametrize("sigma", [pipeline.BLUR_SIGMA, 0.1, 0.3, 1.7, 2.5])
def test_gaussian_blur_is_scipy_bit_for_bit(sigma):
    rng = np.random.Generator(np.random.PCG64(29))
    for shape in ((1, 1), (2, 2), (7, 7), (1, 7), (16, 16), (33, 70), (96, 96),
                  (512, 512)):
        for scale in (1e-3, 1.0, 1e5):
            x = scale * rng.standard_normal((1, *shape))
            assert np.array_equal(pipeline._gaussian_blur(x, sigma),
                                  _scipy_blur(x, sigma)), (shape, scale)


def test_gaussian_blur_spreads_non_finite_cells_as_scipy_does():
    rng = np.random.Generator(np.random.PCG64(30))
    x = rng.standard_normal((2, 20, 23))
    x[0, 3, 4] = np.nan
    x[0, 0, 0] = np.inf
    x[1, 10, 0], x[1, 12, 2] = np.inf, -np.inf  # their sum is NaN where both reach
    with np.errstate(invalid="ignore"):
        for sigma in (pipeline.BLUR_SIGMA, 2.5):
            got, ref = pipeline._gaussian_blur(x, sigma), _scipy_blur(x, sigma)
            assert np.isnan(got).any() and np.isinf(got).any()
            assert np.array_equal(got, ref, equal_nan=True)


@pytest.mark.parametrize("channels", [1, 3])
def test_synth_degrade_is_the_scipy_blur_subsampled_plus_noise(channels):
    rng = np.random.Generator(np.random.PCG64(31))
    hr = rng.standard_normal((channels, 48, 34)).astype(np.float32)
    noise = np.random.Generator(np.random.PCG64(4)).standard_normal((channels, 24, 17))
    ref = _scipy_blur(hr.astype(np.float64), pipeline.BLUR_SIGMA)[:, ::2, ::2]
    ref = (ref + pipeline.NOISE_SIGMA * noise).astype(np.float32)
    lr = synth_degrade(hr, pipeline.BLUR_SIGMA, pipeline.NOISE_SIGMA, 2, seed=4)
    assert np.array_equal(lr, ref)


def test_make_scene_bits_are_pinned():
    # recorded when the base was built from full (h, w) coordinate grids and
    # the blur was scipy's
    scene = make_scene(48, 80, seed=3, channels=3, texture_frac=0.5)
    digest = hashlib.sha256()
    for a in (scene.hr, scene.lr, scene.texture_mask):
        digest.update(a.tobytes())
    assert digest.hexdigest() == ("eddcb849c6fc0917d0019ee8ed4535ce"
                                  "1ef6e2161e489059b86568c50ac0fac7")


def test_nearest_upsample_examples():
    img = np.array([[[1.0, 3.0], [5.0, 7.0]]], np.float32)
    up = nearest_upsample(img, 2)
    assert up.shape == (1, 4, 4)
    assert np.array_equal(up[0, :2, :2], np.full((2, 2), 1.0))
    # factor 1 is a copy, never a view of the input
    same = nearest_upsample(img, 1)
    assert np.array_equal(same, img) and not np.shares_memory(same, img)


def test_config_validation_and_builders():
    with pytest.raises(ConfigError):
        PipelineConfig(factor=0)
    for bad in ({"steps": (20, 14, 8)}, {"taus": (400, 700, 2000)},
                {"steps": (8, 14)}, {"overlap": 16}, {"overlap": -1}):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad)
    cfg = PipelineConfig()
    assert cfg.thresholds().gamma1 == 0.95
    medium = list(GroupLabel).index(GroupLabel.MEDIUM)
    assert (cfg.taus[medium], cfg.steps[medium]) == (700, 14)
    assert cfg.schedule().T == 1000


def test_config_builds_its_schedule_once(monkeypatch):
    builds = []
    real = pipeline.build_linear_schedule

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "build_linear_schedule", counting)
    pipeline._linear_schedule.cache_clear()
    cfg = PipelineConfig(seed=2)
    assert cfg.schedule() is cfg.schedule() and builds == [(1000, 1e-4, 0.02)]
    scene = make_scene(32, 32, seed=6, patch=16, factor=2)
    superresolve(cfg, scene.lr, FlatGrm(), _oracle(cfg, scene))
    assert len(builds) == 1
    # benchmark's two configs a repeat, the run's and its unified twin,
    # share the schedule of the config it was given
    benchmark(cfg, scene, FlatGrm(), _oracle(cfg, scene), repeats=2)
    assert len(builds) == 1
    assert replace(cfg, seed=3).schedule() is cfg.schedule()
    # another schedule is built, not read from the last one
    assert PipelineConfig(T=800, taus=(400, 700, 800)).schedule().T == 800
    assert builds[1:] == [(800, 1e-4, 0.02)]
    pipeline._linear_schedule.cache_clear()


@pytest.mark.parametrize("word, value", [
    *((w, True) for w in ("1", "true", "YES", "On")),
    *((w, False) for w in ("0", "False", "no", "OFF"))])
def test_colornorm_words(word, value):
    assert coerce_field("colornorm", word) is value


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "patch 8\n"
        "gamma1 = 0.9   # relaxed\n"
        "taus 300,600,900\n"
        "colornorm off\n"
        "\n"
    )
    out = parse_config_file(path)
    assert out == {"patch": 8, "gamma1": 0.9, "taus": (300, 600, 900),
                   "colornorm": False}
    cfg = PipelineConfig(**out)
    assert cfg.patch == 8 and not cfg.colornorm

    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key 1\n")
    with pytest.raises(ConfigError):
        parse_config_file(bad)
    for text in ("taus 1,2\n", "taus a,b,c\n", "patch abc\n",
                 "colornorm banana\n", "colornorm 1.0\n", "colornorm\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError):
            parse_config_file(bad)


def test_make_scene_contract():
    scene = make_scene(64, 64, seed=1, patch=16, texture_frac=0.5, factor=2)
    assert scene.hr.shape == (1, 64, 64)
    assert scene.lr.shape == (1, 32, 32)
    assert scene.texture_mask.shape == (64, 64)
    # texture regions are patch aligned: each tile is uniformly masked
    tiles = scene.texture_mask.reshape(4, 16, 4, 16)
    per_tile = tiles.mean(axis=(1, 3))
    assert set(np.unique(per_tile)) <= {0.0, 1.0}
    # textured tiles carry far more variance than smooth ones
    assert scene.hr[0, scene.texture_mask].var() > 10 * scene.hr[0, ~scene.texture_mask].var()
    with pytest.raises(ConfigError):
        make_scene(60, 64, patch=16)
    # a factor that does not divide the sides is a config error, not a
    # GridShapeError from the degradation
    with pytest.raises(ConfigError):
        make_scene(32, 32, patch=16, factor=3)


def test_superresolve_deterministic():
    scene = make_scene(32, 32, seed=2, patch=16, factor=2)
    cfg = PipelineConfig(seed=5)
    grm = FlatGrm()
    d = _oracle(cfg, scene)
    sr1, rep1 = superresolve(cfg, scene.lr, grm, d)
    sr2, rep2 = superresolve(cfg, scene.lr, grm, d)
    assert np.array_equal(sr1, sr2)
    assert sr1.shape == scene.hr.shape
    assert rep1.total_nfe == rep2.total_nfe
    sr3, _ = superresolve(replace(cfg, seed=6), scene.lr, grm, d)
    assert not np.array_equal(sr1, sr3)


def test_superresolve_at_512_holds_no_whole_hidden_layer(trained_grm):
    # one oracle-512 benchmark image (scene 101, the oracle built from the LR
    # grid as the CLI builds it) on 2 conv workers.  Its tracemalloc peak,
    # 13.9 MB, is the GRM's: y_hr, conf and two runs' band buffers; the
    # bound is that plus 10%.  A sampler that stacked all 1849 patches and
    # each group's input and noise peaked at 20.5 MB, and a GRM that made
    # its whole 33.5 MB hidden layer h1 at 45 MB
    cfg = PipelineConfig()
    lr = make_scene(512, 512, seed=101, patch=cfg.patch, texture_frac=0.2,
                    factor=cfg.factor).lr
    denoiser = GaussianOracleDenoiser(
        GaussianOracleStats(mean=float(lr.mean()), var=max(float(lr.var()), 1e-6)),
        cfg.schedule())
    tracemalloc.start()
    try:
        with on_workers(2):
            superresolve(cfg, lr, trained_grm, denoiser)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 15.2e6


class ReadOnlyGrm(BandGrm):
    """BandGrm whose outputs refuse writes."""

    def __call__(self, y_lr):
        outs = super().__call__(y_lr)
        for a in outs:
            a.setflags(write=False)
        return outs


def test_superresolve_never_writes_into_the_coarse_grid():
    # decompose's patches are views into the GRM's output: a stage that
    # wrote into them would raise on read-only outputs, and the run with a
    # memory (retrieval reads the views too) must keep its bits
    cfg = PipelineConfig(seed=11)
    rng = np.random.Generator(np.random.PCG64(3))
    source = list(rng.standard_normal((8, 1, 16, 16)).astype(np.float32))
    memory = build_memory(source, TextureExtractor((1, 16, 16), seed=0), 4)
    denoiser = GaussianOracleDenoiser(GaussianOracleStats(0.0, 0.5), cfg.schedule())
    digests = []
    for grm in (BandGrm(), ReadOnlyGrm()):
        sr, _ = superresolve(cfg, _lr(1, 32, 32), grm, denoiser, memory)
        digests.append(hashlib.sha256(sr.tobytes()).hexdigest())
    assert digests[0] == digests[1]


def test_superresolve_uniform_confidence_is_all_simple():
    scene = make_scene(32, 32, seed=3, patch=16, factor=2)
    cfg = PipelineConfig(seed=1)
    _, report = superresolve(cfg, scene.lr, FlatGrm(1.0), _oracle(cfg, scene))
    assert report.group_counts[GroupLabel.HARD] == 0
    assert report.group_counts[GroupLabel.MEDIUM] == 0
    _, report = superresolve(cfg, scene.lr, FlatGrm(0.5), _oracle(cfg, scene))
    assert report.group_counts[GroupLabel.SIMPLE] == 0
    assert report.group_counts[GroupLabel.MEDIUM] == 0


def test_superresolve_pads_odd_sizes():
    scene = make_scene(48, 48, seed=4, patch=16, factor=2)
    lr = scene.lr[:, :23, :21]  # not a multiple of the wavelet block
    cfg = PipelineConfig(seed=1)
    sr, _ = superresolve(cfg, lr, FlatGrm(), _oracle(cfg, scene))
    assert sr.shape == (1, 46, 42)


def test_levels_may_reach_the_larger_of_the_grid_and_the_patch():
    scene = make_scene(32, 32, seed=5, patch=16, factor=2)  # 32x32 upsampled
    sr, _ = superresolve(PipelineConfig(levels=5), scene.lr, FlatGrm(),
                         _oracle(PipelineConfig(), scene))
    assert sr.shape == (1, 32, 32)
    with pytest.raises(StageError) as exc:
        superresolve(PipelineConfig(levels=6), scene.lr, FlatGrm(),
                     _oracle(PipelineConfig(), scene))
    assert exc.value.stage == "upsample" and isinstance(exc.value.cause, ConfigError)
    # a grid smaller than one patch is padded up to the patch, not refused
    sr, _ = superresolve(PipelineConfig(levels=4), scene.lr[:, :4, :4], FlatGrm(),
                         _oracle(PipelineConfig(), scene))
    assert sr.shape == (1, 8, 8)


def test_superresolve_stage_errors():
    scene = make_scene(32, 32, seed=5, patch=16, factor=2)
    cfg = PipelineConfig(seed=1)

    class BrokenGrm:
        def __call__(self, y_lr):
            raise ValueError("boom")

    with pytest.raises(StageError) as exc:
        superresolve(cfg, scene.lr, BrokenGrm(), _oracle(cfg, scene))
    assert exc.value.stage == "grm"

    # a memory without an extractor is queried through the one it was built
    # with (seed 4 here, not the run's seed 1)
    source, _ = decompose(scene.hr, cfg.patch, 0)
    memory = build_memory(source, TextureExtractor(source[0].shape, seed=4), cfg.topk)
    runs = []
    for extractor in (None, memory.extractor()):
        oracle, prompted = _oracle(cfg, scene), []

        def denoiser(x_t, t, prompts=None):
            prompted.append([None if p is None else p.indices.tolist() for p in prompts])
            return oracle(x_t, t, prompts)

        sr, _ = superresolve(cfg, scene.lr, FlatGrm(), denoiser, memory, extractor)
        runs.append((sr, prompted))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert any(p is not None for call in runs[0][1] for p in call)


def test_confidence_map_of_two_channels_fails_at_qmap():
    scene = make_scene(32, 32, seed=5, patch=16, factor=2)
    cfg = PipelineConfig(seed=1)

    def two_channel_grm(y_lr):
        return y_lr.copy(), np.concatenate([np.ones_like(y_lr), np.full_like(y_lr, 0.1)])

    with pytest.raises(StageError) as exc:
        superresolve(cfg, scene.lr, two_channel_grm, _oracle(cfg, scene))
    assert exc.value.stage == "qmap"
    assert isinstance(exc.value.cause, GridShapeError)

def test_featureless_patches_fall_back_to_no_prompt():
    # the untrained GRM restores an all-zero grid to exactly zero, so every
    # patch is featureless: each gets a None prompt, and the run with a
    # memory gives the bits of the run without one
    cfg = PipelineConfig(patch=8, overlap=2, steps=(2, 3, 4), seed=0)
    lr = np.zeros((1, 8, 8), np.float32)
    grm = GlobalRestorer(1, seed=0)
    dit = PatchDiT(channels=1, patch=8, width=8, depth=1, seed=0)
    rng = np.random.Generator(np.random.PCG64(8))
    source = list(rng.standard_normal((6, 1, 8, 8)).astype(np.float32))
    memory = build_memory(source, TextureExtractor((1, 8, 8), seed=0), 4)
    prompted = []

    def denoiser(x_t, t, prompts=None):
        prompted.extend(prompts)
        return dit(x_t, t, prompts)

    with_memory, _ = superresolve(cfg, lr, grm, denoiser, memory)
    assert prompted and all(p is None for p in prompted)
    without, _ = superresolve(cfg, lr, grm, dit)
    assert np.array_equal(with_memory, without)


def test_non_finite_output_fails_at_its_stage(monkeypatch):
    scene = make_scene(32, 32, seed=5, patch=16, factor=2)
    cfg = PipelineConfig(seed=1)

    def nan_denoiser(x_t, t, prompts=None):
        return np.full_like(x_t, np.nan)

    with pytest.raises(StageError) as exc:
        superresolve(cfg, scene.lr, FlatGrm(), nan_denoiser)
    assert exc.value.stage == "pgs"
    assert isinstance(exc.value.cause, NumericError)

    monkeypatch.setattr(pipeline, "wavelet_color_normalize",
                        lambda sr, ref, levels: sr * np.inf)
    with pytest.raises(StageError) as exc:
        superresolve(cfg, scene.lr, FlatGrm(), _oracle(cfg, scene))
    assert exc.value.stage == "recompose"
    assert isinstance(exc.value.cause, NumericError)


def test_benchmark_and_format():
    scene = make_scene(32, 32, seed=6, patch=16, factor=2)
    cfg = PipelineConfig(seed=2)
    grm = FlatGrm(1.0)  # everything Simple: maximal adaptive saving
    result = benchmark(cfg, scene, grm, _oracle(cfg, scene))
    assert result["nfe_pgs"] == 8 * result["group_counts"]["simple"]
    assert result["nfe_unified"] == 20 * result["group_counts"]["simple"]
    assert result["ratio"] == pytest.approx(0.4)
    text = format_benchmark(result)
    assert "count_simple" in text and "ratio 0.400000" in text
    with pytest.raises(ConfigError):
        benchmark(cfg, scene, grm, _oracle(cfg, scene), repeats=0)


def test_grid_io_roundtrip(tmp_path):
    rng = np.random.Generator(np.random.PCG64(8))
    grid = rng.standard_normal((3, 5, 7)).astype(np.float32)
    path = tmp_path / "g.psg"
    save_grid(path, grid)
    assert np.array_equal(load_grid(path), grid)
    with pytest.raises(GridShapeError):
        save_grid(path, grid[0])


def test_grid_io_errors(tmp_path):
    path = tmp_path / "g.psg"
    save_grid(path, np.zeros((1, 2, 2), np.float32))
    raw = path.read_bytes()
    bad = tmp_path / "bad.psg"
    bad.write_bytes(b"XSG1" + raw[4:])
    with pytest.raises(MagicMismatchError):
        load_grid(bad)
    trunc = tmp_path / "trunc.psg"
    trunc.write_bytes(raw[:-4])
    with pytest.raises(TruncatedFileError):
        load_grid(trunc)


def test_export_pnm(tmp_path):
    grid = np.linspace(0, 1, 16, dtype=np.float32).reshape(1, 4, 4)
    path = tmp_path / "img.pgm"
    export_pnm(path, grid)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n4 4\n255\n")
    assert len(raw) == len(b"P5\n4 4\n255\n") + 16
    assert raw[-1] == 255
    with pytest.raises(GridShapeError):
        export_pnm(tmp_path / "x.ppm", np.zeros((2, 4, 4), np.float32))
