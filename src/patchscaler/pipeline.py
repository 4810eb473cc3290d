"""End-to-end orchestration: synthetic data, inference, benchmark."""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter

from .colornorm import wavelet_color_normalize
from .confidence import Thresholds, build_qmap
from .errors import (ConfigError, DegenerateQueryError, GridShapeError,
                     NumericError, StageError, check_allocatable)
from .pgs import run_pgs
from .rtm import retrieve_topk
from .schedule import NoiseSchedule, build_linear_schedule, make_substeps
from .tiling import decompose, recompose


@dataclass(frozen=True)
class PipelineConfig:
    patch: int = 16
    overlap: int = 4
    gamma1: float = 0.95
    gamma2: float = 0.75
    # per-group shortcut, each a (simple, medium, hard) tuple: group g starts
    # sampling at intermediate step taus[g] and takes steps[g] denoiser calls
    taus: tuple[int, int, int] = (400, 700, 1000)
    steps: tuple[int, int, int] = (8, 14, 20)
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    topk: int = 4
    levels: int = 2
    colornorm: bool = True
    factor: int = 2               # LR -> HR upsampling factor
    seed: int = 0

    def __post_init__(self):
        if self.factor < 1:
            raise ConfigError("factor must be >= 1")
        if not 0 <= self.overlap < self.patch:
            raise ConfigError(f"overlap must be in [0, patch), got {self.overlap} "
                              f"for patch {self.patch}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.topk < 1:
            raise ConfigError(f"topk must be >= 1, got {self.topk}")
        if self.levels < 1:
            raise ConfigError(f"levels must be >= 1, got {self.levels}")
        self.thresholds()  # 0 <= gamma2 < gamma1 <= 1
        object.__setattr__(self, "_schedule",  # T >= 1, 0 < beta_start <= beta_end < 1
                           build_linear_schedule(self.T, self.beta_start, self.beta_end))
        taus, steps = self.taus, self.steps
        if len(taus) != 3 or len(steps) != 3:
            raise ConfigError("taus and steps need one value per group (S, M, H)")
        if not (taus[0] <= taus[1] <= taus[2]):
            raise ConfigError(f"taus must be non-decreasing S<=M<=H, got {taus}")
        if not (steps[0] <= steps[1] <= steps[2]):
            raise ConfigError(f"step counts must be non-decreasing, got {steps}")
        for tau, n in zip(taus, steps):
            make_substeps(tau, n)  # 1 <= n <= tau
        if taus[2] > self.T:
            raise ConfigError(f"hard tau {taus[2]} exceeds T={self.T}")

    def thresholds(self) -> Thresholds:
        return Thresholds(self.gamma1, self.gamma2)

    def schedule(self) -> NoiseSchedule:
        return self._schedule


def parse_config_file(path) -> dict:
    """UTF-8 key value (or key=value) lines mirroring PipelineConfig fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {path} is not UTF-8 text ({e})") from e
    out = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, val = (s.strip() for s in line.split("=", 1))
        else:
            key, _, val = line.partition(" ")
            val = val.strip()
        if key not in PipelineConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config key '{key}'")
        out[key] = coerce_field(key, val)
    return out


def coerce_field(key: str, val: str):
    """Parse the text of one PipelineConfig field; bad text is a ConfigError."""
    try:
        if key in ("taus", "steps"):
            parts = tuple(int(p) for p in val.split(","))
        elif key == "colornorm":
            word = val.lower()
            if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
                raise ValueError(val)
            return word in ("1", "true", "yes", "on")
        elif key in ("gamma1", "gamma2", "beta_start", "beta_end"):
            return float(val)
        else:
            return int(val)
    except ValueError as e:
        raise ConfigError(f"bad value '{val}' for '{key}'") from e
    if len(parts) != 3:
        raise ConfigError(f"'{key}' needs three comma-separated values")
    return parts


# ---------------------------------------------------------------------------
# synthetic data

# make_scene's texture strength and its LR degradation (blur, then noise)
TEXTURE_STD = 1.5
BLUR_SIGMA = 0.8
NOISE_SIGMA = 0.05


@dataclass(frozen=True)
class SyntheticScene:
    """Labeled ground truth with its degraded LR counterpart."""

    hr: np.ndarray
    lr: np.ndarray
    texture_mask: np.ndarray   # (h, w) bool, True in textured regions


def synth_degrade(hr: np.ndarray, blur_sigma: float, noise_sigma: float,
                  factor: int, seed: int = 0) -> np.ndarray:
    """Gaussian blur -> subsample -> additive Gaussian noise."""
    c, h, w = hr.shape
    if h % factor or w % factor:
        raise GridShapeError(f"{h}x{w} not divisible by factor {factor}")
    out = hr.astype(np.float64)
    if blur_sigma > 0:
        out = np.stack([gaussian_filter(ch, blur_sigma, mode="nearest")
                        for ch in out])
    out = out[:, ::factor, ::factor]
    if noise_sigma > 0:
        rng = np.random.Generator(np.random.PCG64(seed))
        out = out + noise_sigma * rng.standard_normal(out.shape)
    return out.astype(np.float32)


def make_scene(height: int, width: int, seed: int = 0, channels: int = 1,
               patch: int = 16, texture_frac: float = 0.5,
               factor: int = 2) -> SyntheticScene:
    """Smooth low-frequency base plus patch-aligned iid-noise texture blocks.

    Texture regions are aligned to the patch grid so every patch is either
    fully textured or fully smooth, which makes difficulty labels exact.
    """
    if height % patch or width % patch:
        raise ConfigError("scene dims must be multiples of the patch size")
    if height % factor or width % factor:
        raise ConfigError(f"scene dims {height}x{width} must be multiples of "
                          f"the factor {factor}")
    rng = np.random.Generator(np.random.PCG64(seed))
    check_allocatable(f"size {height}x{width}", (2, height, width))  # the mgrid below
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    base = np.zeros((height, width))
    for _ in range(4):
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        phy, phx = rng.uniform(0, 2 * np.pi, size=2)
        base += rng.uniform(0.1, 0.3) * np.cos(2 * np.pi * fy * yy / height + phy) \
            * np.cos(2 * np.pi * fx * xx / width + phx)
    tiles_y, tiles_x = height // patch, width // patch
    tex_tiles = rng.random((tiles_y, tiles_x)) < texture_frac
    mask = np.kron(tex_tiles, np.ones((patch, patch), dtype=bool))
    hr = np.stack([base.copy() for _ in range(channels)])
    hr[:, mask] += TEXTURE_STD * rng.standard_normal((channels, int(mask.sum())))
    hr = hr.astype(np.float32)
    lr = synth_degrade(hr, BLUR_SIGMA, NOISE_SIGMA, factor, seed=seed + 1)
    return SyntheticScene(hr=hr, lr=lr, texture_mask=mask)


# ---------------------------------------------------------------------------
# inference

def nearest_upsample(img: np.ndarray, f: int) -> np.ndarray:
    return np.repeat(np.repeat(img, f, axis=1), f, axis=2)


def _pad_to_multiple(img: np.ndarray, m: int):
    _, h, w = img.shape
    ph = (-h) % m
    pw = (-w) % m
    if ph or pw:
        img = np.pad(img, ((0, 0), (0, ph), (0, pw)), mode="edge")
    return img, (h, w)


@contextmanager
def _stage(name: str):
    """Re-raise any failure inside the block as StageError(name, cause)."""
    try:
        yield
    except Exception as e:  # noqa: BLE001
        raise StageError(name, e) from e


def superresolve(cfg: PipelineConfig, lr_image: np.ndarray, grm, denoiser,
                 memory=None, extractor=None):
    """Full restoration pass; returns (sr_image, PgsReport).

    Stages: upsample -> coarse restore -> quantified map -> per-patch
    retrieval -> grouped sampling -> recompose -> color fix, which gives
    each 2^levels block of the output lr_up's block mean (the Haar low-band
    swap).  A memory given without an extractor is queried with the one it
    was built with, memory.extractor().
    """
    with _stage("upsample"):
        c, h, w = lr_image.shape
        check_allocatable(f"factor={cfg.factor}", (c, h * cfg.factor, w * cfg.factor))
        lr_up = nearest_upsample(lr_image, cfg.factor)
        # the color fix needs sides divisible by 2**levels; past both the grid
        # and a patch, the padding would be most of the work (levels 10: 1024^2).
        # levels >= m.bit_length() is 2**levels > m, without building 2**levels
        if cfg.levels >= max(*lr_up.shape[1:], cfg.patch).bit_length():
            raise ConfigError(f"levels={cfg.levels}: 2**levels exceeds both the upsampled "
                              f"grid {lr_up.shape[1:]} and the patch size {cfg.patch}")
        lr_up, orig = _pad_to_multiple(lr_up, 1 << cfg.levels)
    with _stage("grm"):
        y_hr, conf = grm(lr_up)
        # report a NaN or inf from the input or the model here, not later
        # as a confidence value that qmap rejects as a config error
        if not np.isfinite(y_hr).all():
            raise NumericError("coarse restoration is not finite")
        if not np.isfinite(conf).all():
            raise NumericError("confidence map is not finite")
    with _stage("qmap"):
        patches, grid = decompose(y_hr, cfg.patch, cfg.overlap)
        qmap = build_qmap(conf, grid, cfg.thresholds())
    prompts = None
    if memory is not None:
        with _stage("retrieve"):
            if extractor is None:
                extractor = memory.extractor()
            prompts = []
            for p in patches:
                try:
                    prompts.append(retrieve_topk(memory, p, extractor, cfg.topk))
                except DegenerateQueryError:
                    prompts.append(None)  # unconditional fallback
    with _stage("pgs"):
        restored, report = run_pgs(denoiser, cfg.schedule(), patches, qmap,
                                   cfg.taus, cfg.steps, prompts=prompts,
                                   seed=cfg.seed)
    with _stage("recompose"):
        sr = recompose(restored, grid)
        if cfg.colornorm:
            sr = wavelet_color_normalize(sr, lr_up, cfg.levels)
        sr = sr[:, :orig[0], :orig[1]]
        if not np.isfinite(sr).all():
            raise NumericError("recomposed image is not finite")
    return sr.astype(np.float32), report


def _unified_cfg(cfg: PipelineConfig) -> PipelineConfig:
    # every patch gets the Hard group's step count from the full tau = T
    return replace(cfg, taus=(cfg.T,) * 3, steps=(cfg.steps[2],) * 3)


def benchmark(cfg: PipelineConfig, scene: SyntheticScene, grm, denoiser,
              repeats: int = 1) -> dict:
    """Paired adaptive-vs-unified runs on identical seeds."""
    if repeats < 1:
        raise ConfigError("repeats must be >= 1")
    acc = {k: 0.0 for k in ("mse_pgs", "mse_unified", "nfe_pgs", "nfe_unified",
                            "wall_ms_pgs", "wall_ms_unified")}
    counts = None
    for r in range(repeats):
        run_cfg = replace(cfg, seed=cfg.seed + r)
        sr_a, rep_a = superresolve(run_cfg, scene.lr, grm, denoiser)
        sr_u, rep_u = superresolve(_unified_cfg(run_cfg), scene.lr, grm, denoiser)
        acc["mse_pgs"] += float(np.mean((sr_a - scene.hr) ** 2))
        acc["mse_unified"] += float(np.mean((sr_u - scene.hr) ** 2))
        acc["nfe_pgs"] += rep_a.total_nfe
        acc["nfe_unified"] += rep_u.total_nfe
        acc["wall_ms_pgs"] += rep_a.wall_ms
        acc["wall_ms_unified"] += rep_u.wall_ms
        counts = rep_a.group_counts
    out = {k: v / repeats for k, v in acc.items()}
    out["ratio"] = out["nfe_pgs"] / out["nfe_unified"]
    out["group_counts"] = {g.value: counts[g] for g in counts}
    return out


def format_benchmark(result: dict) -> str:
    lines = []
    for g, n in result["group_counts"].items():
        lines.append(f"count_{g} {n}")
    for key in ("nfe_pgs", "nfe_unified", "ratio", "mse_pgs", "mse_unified",
                "wall_ms_pgs", "wall_ms_unified"):
        lines.append(f"{key} {result[key]:.6f}")
    return "\n".join(lines) + "\n"
