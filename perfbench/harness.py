"""Closed-loop super-resolution workloads: inputs, set-up, timed loop, checks.

One client in one process processes the scenes of a fixed, seeded pool one
after another: ``gridio.load_grid`` of the LR grid -> ``pipeline.superresolve``
-> ``gridio.save_grid``.  The pool is fixed so every output can be checked
against golden results; the run seed permutes the order the pool is visited.
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from patchscaler import checkpoint, gridio, pipeline, rtm, tiling
from patchscaler.confidence import GroupLabel
from patchscaler.errors import DegenerateQueryError
from patchscaler.models import (GaussianOracleDenoiser, GaussianOracleStats,
                                GlobalRestorer, PatchDiT)
from patchscaler.pipeline import PipelineConfig, make_scene

import spans

HERE = Path(__file__).resolve().parent
GRM_CKPT = HERE / "grm.psck"          # made by make_grm_ckpt.py
GRM_SHA256 = "59af92b8e4902b05fd97e2bec9051d5313ba1e3e95463d28b4aba41e1f56fdf8"
GOLDEN_JSON = HERE / "golden.json"    # made by record_golden.py
GOLDEN_NPZ = HERE / "golden_dit.npz"

CFG = PipelineConfig()  # patch 16, overlap 4, taus (400, 700, 1000), steps (8, 14, 20)
LABELS = (GroupLabel.SIMPLE, GroupLabel.MEDIUM, GroupLabel.HARD)
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 5, 2.0, 20000
# Untimed images before set-up is timed and the timed loop.  The first
# seconds of a process run slow: an oracle-512 image took 1.3-1.6x its later
# time for about 4 s after the first one on the 2-core VM named in README.md.
WARMUP_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    hr: int                        # HR side; the program sees the LR grid, hr // 2
    texture_frac: float
    denoiser: str                  # "oracle" (built per image from the LR grid) or "dit"
    scenes: tuple[int, ...]        # scene seeds of the input pool
    memory: int = 0                # RTM entries; 0 runs without retrieval
    memory_scenes: tuple[int, ...] = ()


# Why each workload exists is in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("oracle-512", 512, 0.2, "oracle", scenes=(101, 102, 103, 104)),
    Workload("dit-96", 96, 0.5, "dit", scenes=(201, 202)),
    Workload("dit-rtm-96", 96, 0.5, "dit", scenes=(201, 202), memory=128,
             memory_scenes=tuple(range(301, 309))),
)}

# name -> unit; the end-to-end metrics of a --trace 0 run
E2E_UNITS = {
    "hr_mpix_per_s": "Mpix/s", "sr_ms_p50": "ms", "sr_ms_tail": "ms",
    "nfe_per_image": "count", "nfe_ratio": "ratio", "psnr_db": "dB",
    "setup_s": "s", "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# environment

def _openblas() -> dict:
    """Version string and thread count of the OpenBLAS numpy loaded."""
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure BLAS is loaded
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                               ("openblas_", "")):
            get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                return {"blas": get_config().decode(), "blas_threads": get_threads()}
    return {"blas": "unknown", "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            **_openblas()}


# ---------------------------------------------------------------------------
# inputs and set-up

@dataclass
class Inputs:
    lr_paths: list[Path]
    hr: list[np.ndarray]
    memory_patches: list[np.ndarray]


def make_inputs(w: Workload, work: Path) -> Inputs:
    """Scene pool and RTM source patches; the program sees only LR files."""
    work.mkdir(parents=True, exist_ok=True)
    lr_paths, hrs = [], []
    for seed in w.scenes:
        scene = make_scene(w.hr, w.hr, seed=seed, patch=CFG.patch,
                           texture_frac=w.texture_frac, factor=CFG.factor)
        path = work / f"lr-{seed}.psg"
        gridio.save_grid(path, scene.lr)
        lr_paths.append(path)
        hrs.append(scene.hr)
    patches = []
    for seed in w.memory_scenes:
        scene = make_scene(w.hr, w.hr, seed=seed, patch=CFG.patch,
                           texture_frac=w.texture_frac, factor=CFG.factor)
        patches += tiling.decompose(scene.hr, CFG.patch, 0)[0]
    return Inputs(lr_paths, hrs, patches)


@dataclass
class Program:
    grm: GlobalRestorer
    denoiser: PatchDiT | None      # None: an oracle is built per image
    memory: rtm.TextureMemory | None = None
    extractor: rtm.TextureExtractor | None = None


def _has_features(extractor, patch) -> bool:
    try:
        rtm.extract_query(extractor, patch)
    except DegenerateQueryError:
        return False
    return True


def set_up(w: Workload, inputs: Inputs, work: Path) -> Program:
    """What a user pays before the first image: models and texture memory."""
    params = checkpoint.load_params(GRM_CKPT)
    hidden, channels = params["conv1.w"].shape[:2]
    grm = GlobalRestorer(channels=channels, hidden=hidden, seed=CFG.seed)
    checkpoint.restore_into(grm, params)
    prog = Program(grm, None)
    if w.denoiser == "dit":
        prog.denoiser = PatchDiT(channels=1, patch=CFG.patch, width=64, depth=2,
                                 heads=4, seed=0)
    if w.memory:
        extractor = rtm.TextureExtractor((1, CFG.patch, CFG.patch), seed=CFG.seed)
        usable = [p for p in inputs.memory_patches if _has_features(extractor, p)]
        path = work / "memory.rtm"
        rtm.save_memory(rtm.build_memory(usable, extractor, w.memory), path)
        prog.memory, prog.extractor = rtm.load_memory(path), extractor
    return prog


def timed_setups(w: Workload, inputs: Inputs, work: Path):
    """Set up repeatedly; returns (last program, seconds of each set-up)."""
    times: list[float] = []
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        t0 = time.perf_counter()
        prog = set_up(w, inputs, work)
        times.append(time.perf_counter() - t0)
    return prog, times


# ---------------------------------------------------------------------------
# one image

@dataclass
class Image:
    scene: int
    ms: float = 0.0
    problems: list[str] = field(default_factory=list)
    report: object = None
    psnr_db: float = 0.0
    evaluations: int = 0           # patch evaluations seen by the denoiser proxy


def _oracle(lr: np.ndarray) -> GaussianOracleDenoiser:
    # as the CLI builds it: prior stats taken from the LR grid
    stats = GaussianOracleStats(mean=float(lr.mean()),
                                var=max(float(lr.var()), 1e-6))
    return GaussianOracleDenoiser(stats, CFG.schedule())


def process(prog: Program, lr_path: Path, out_path: Path, tracer=None):
    """load -> superresolve -> save; returns (sr, report, denoiser proxy)."""
    lr = gridio.load_grid(lr_path)
    grm, denoiser, extractor = prog.grm, prog.denoiser or _oracle(lr), prog.extractor
    proxy = None
    if tracer is not None:
        grm = spans.Proxy(tracer, "models.grm", grm)
        denoiser = proxy = spans.DenoiserProxy(tracer, denoiser)
        if extractor is not None:
            extractor = spans.Proxy(tracer, "rtm.extractor", extractor)
    sr, report = pipeline.superresolve(CFG, lr, grm, denoiser, prog.memory, extractor)
    gridio.save_grid(out_path, sr)
    return sr, report, proxy


def psnr_db(sr: np.ndarray, hr: np.ndarray) -> float:
    peak = float(hr.max() - hr.min())
    mse = float(np.mean((sr.astype(np.float64) - hr) ** 2))
    return 10.0 * np.log10(peak * peak / mse)


def sr_digest(sr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(sr, dtype="<f4").tobytes()).hexdigest()


def group_nfe(report) -> dict:
    return {g.value: int(report.group_nfe.get(g, 0)) for g in LABELS}


def check_output(w: Workload, gold: dict, sr: np.ndarray, report, tol: float) -> list[str]:
    """Problems of one output against its golden entry; empty when correct."""
    if sr.shape != (1, w.hr, w.hr):
        return [f"shape {sr.shape} != {(1, w.hr, w.hr)}"]
    problems = []
    if not np.all(np.isfinite(sr)):
        problems.append("non-finite output")
    if group_nfe(report) != gold["group_nfe"]:
        problems.append(f"NFE ledger {group_nfe(report)} != golden {gold['group_nfe']}")
    if w.denoiser == "oracle":
        # the oracle path must stay bit-identical
        if sr_digest(sr) != gold["sha256"]:
            problems.append("SR grid differs from its golden digest")
    else:
        err = float(np.max(np.abs(sr.astype(np.float64) - gold["sr"])))
        if not err <= tol:
            problems.append(f"max abs error {err:.3g} to golden output exceeds {tol:g}")
    return problems


# ---------------------------------------------------------------------------
# golden results

def record_golden(w: Workload, work: Path) -> list[dict]:
    """Golden entries of a workload's pool, one per scene, from this machine."""
    inputs = make_inputs(w, work)
    prog = set_up(w, inputs, work)
    entries = []
    for k, seed in enumerate(w.scenes):
        sr, report, _ = process(prog, inputs.lr_paths[k], work / f"sr-{seed}.psg")
        entry = {"scene": seed, "sha256": sr_digest(sr), "group_nfe": group_nfe(report)}
        if w.denoiser != "oracle":
            entry["sr"] = sr.astype(np.float32)
        entries.append(entry)
    return entries


def load_golden() -> dict:
    golden = json.loads(GOLDEN_JSON.read_text())
    with np.load(GOLDEN_NPZ) as arrays:
        for name, entries in golden["workloads"].items():
            for e in entries:
                key = f"{name}_{e['scene']}"
                if key in arrays:
                    e["sr"] = arrays[key]
    return golden


# ---------------------------------------------------------------------------
# the run

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest rank with >= 10 samples beyond it.

    Never below the median: with 20 samples or fewer it is the median.
    """
    s = sorted(values)
    n = len(s)
    if n <= 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


class Run:
    """State of one benchmark process: one workload, one seed."""

    def __init__(self, w: Workload, seed: int, golden: dict, work: Path):
        self.w, self.work = w, work
        self.gold = {e["scene"]: e for e in golden["workloads"][w.name]}
        self.tol = golden["dit_max_abs_tol"]
        self.images: list[Image] = []
        self.problems: list[str] = []
        self.inputs = make_inputs(w, work)
        rng = np.random.Generator(np.random.PCG64(seed))
        self.order = [int(k) for k in rng.permutation(len(w.scenes))]
        if checkpoint_digest() != GRM_SHA256:
            self.problems.append(f"{GRM_CKPT.name} differs from its recorded digest")

    def image(self, prog: Program, k: int, tracer=None) -> Image:
        seed = self.w.scenes[k]
        img = Image(seed)
        try:
            t0 = time.perf_counter()
            sr, report, proxy = process(prog, self.inputs.lr_paths[k],
                                        self.work / f"sr-{seed}.psg", tracer)
            img.ms = (time.perf_counter() - t0) * 1e3
        except Exception as e:  # noqa: BLE001 - a failed image is counted, not fatal
            img.problems.append(f"{type(e).__name__}: {e}")
        else:
            img.report = report
            img.psnr_db = psnr_db(sr, self.inputs.hr[k])
            img.problems += check_output(self.w, self.gold[seed], sr, report, self.tol)
            if proxy is not None:
                img.evaluations = proxy.evaluations
                if proxy.evaluations != report.total_nfe:
                    img.problems.append(f"NFE ledger {report.total_nfe} != "
                                        f"{proxy.evaluations} denoiser evaluations")
        for p in img.problems:
            print(f"image {len(self.images)} (scene {seed}): {p}", file=sys.stderr)
        self.images.append(img)
        return img

    def loop(self, prog: Program, seconds: float, tracer=None) -> list[Image]:
        """Images in pool order, round and round, for about `seconds`.

        At least one image runs; after that, the next starts only if an
        image of the mean length so far would end within `seconds`.
        """
        done: list[Image] = []
        start = time.perf_counter()
        while True:
            k = self.order[len(done) % len(self.order)]
            if tracer is not None:
                tracer.image = f"img-{len(self.images)}"
                done.append(tracer.call("bench.image", self.image, prog, k, tracer))
            else:
                done.append(self.image(prog, k))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(done) > seconds:
                return done

    @property
    def failed(self) -> int:
        return sum(1 for img in self.images if img.problems)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def checkpoint_digest() -> str:
    return hashlib.sha256(GRM_CKPT.read_bytes()).hexdigest()


def scene_mean(images: list[Image], value) -> float:
    """Mean over scenes of each scene's mean, so the mix of a run's last,
    partial pass over the pool does not move it."""
    per_scene: dict[int, list[float]] = {}
    for img in images:
        per_scene.setdefault(img.scene, []).append(value(img))
    if not per_scene:
        return float("nan")
    return statistics.fmean(statistics.fmean(v) for v in per_scene.values())


def e2e_metrics(w: Workload, timed: list[Image], setups: list[float]) -> tuple[dict, dict]:
    """(metric -> value, notes) over the timed images that succeeded."""
    ok = [img for img in timed if not img.problems]
    ms = [img.ms for img in ok] or [float("nan")]
    tail_ms, tail_pct = tail(ms)
    values = {
        "hr_mpix_per_s": len(ok) * w.hr * w.hr / 1e6 / (sum(ms) / 1e3),
        "sr_ms_p50": statistics.median(ms),
        "sr_ms_tail": tail_ms,
        "nfe_per_image": scene_mean(ok, lambda img: img.report.total_nfe),
        "nfe_ratio": scene_mean(ok, lambda img: img.report.ratio),
        "psnr_db": scene_mean(ok, lambda img: img.psnr_db),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"sr_ms_p50": f"{len(ms)} timed images",
             "sr_ms_tail": f"p{tail_pct:.1f} of {len(ms)} timed images",
             "setup_s": f"median of {len(setups)} set-ups",
             "peak_rss_mb": "ru_maxrss of this process"}
    return values, notes


# name -> unit; the per-layer metrics of a --trace 1 run
LAYER_UNITS = {
    "pipeline.superresolve_ms": "ms", "pipeline.self_ms": "ms",
    "models.grm_ms": "ms", "models.grm_conv_ms": "ms",
    "tiling.decompose_ms": "ms", "confidence.qmap_ms": "ms",
    "rtm.retrieve_ms": "ms", "rtm.extract_ms": "ms", "rtm.queries": "count",
    "rtm.fallback_frac": "ratio",
    "pgs.self_ms": "ms", "pgs.rng_ms": "ms",
    "schedule.truncated_forward_ms": "ms", "schedule.reverse_step_ms": "ms",
    "pgs.denoiser_calls": "count", "pgs.patches_per_call": "ratio",
    **{f"pgs.nfe_{g.value}": "count" for g in LABELS},
    **{f"confidence.patches_{g.value}": "count" for g in LABELS},
    "models.denoiser_ms": "ms", "models.denoiser_ms_per_nfe": "ms",
    "models.dit_self_attn_ms": "ms", "models.dit_cross_attn_ms": "ms",
    "models.dit_ff_other_ms": "ms", "models.dit_prompt_encode_ms": "ms",
    "models.dit_prompt_encodes_per_patch": "ratio",
    "tiling.recompose_ms": "ms", "colornorm.ms": "ms",
    "gridio.load_ms": "ms", "gridio.save_ms": "ms",
    "checkpoint.load_ms": "ms", "rtm.build_ms": "ms", "rtm.load_ms": "ms",
    "trace.overhead_ms": "ms", "trace.overhead_pct": "%",
}


class _Missing(Exception):
    pass


def layer_metrics(w: Workload, tracer: spans.Tracer, traced: list[Image],
                  untraced: list[Image], n_setups: int) -> dict:
    """metric -> value per traced image (per set-up for set-up layers);
    None when a wrapped name no longer exists in the program."""
    per_image = spans.summarize(tracer.spans, lambda im: im.startswith("img-"))
    per_setup = spans.summarize(tracer.spans, lambda im: im.startswith("setup-"))
    n = len(traced)

    def get(name, table=per_image) -> spans.Totals:
        if name in tracer.missing:
            raise _Missing(name)
        return table.get(name, spans.Totals())

    def incl(name, table=per_image, per=n):
        return get(name, table).inclusive_ns / 1e6 / per

    def ratio(num, den):
        return num / den if den else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    reports = [img.report for img in traced if img.report is not None]
    evaluations = sum(img.evaluations for img in traced)
    base_ms = mean([img.ms for img in untraced])
    overhead_ms = mean([img.ms for img in traced]) - base_ms
    metrics = {
        "pipeline.superresolve_ms": lambda: incl("pipeline.superresolve"),
        "pipeline.self_ms": lambda: get("pipeline.superresolve").self_ns / 1e6 / n,
        "models.grm_ms": lambda: incl("models.grm"),
        "models.grm_conv_ms": lambda: incl("models.grm_conv"),
        "tiling.decompose_ms": lambda: incl("tiling.decompose"),
        "confidence.qmap_ms": lambda: incl("confidence.build_qmap"),
        "rtm.retrieve_ms": lambda: incl("rtm.retrieve_topk"),
        "rtm.extract_ms": lambda: incl("rtm.extractor"),
        "rtm.queries": lambda: get("rtm.retrieve_topk").calls / n,
        "rtm.fallback_frac": lambda: ratio(get("rtm.retrieve_topk").errors,
                                           get("rtm.retrieve_topk").calls),
        "pgs.self_ms": lambda: incl("pgs.run_pgs") - incl("models.denoiser"),
        "pgs.rng_ms": lambda: incl("pgs.patch_rng"),
        "schedule.truncated_forward_ms": lambda: incl("schedule.truncated_forward"),
        "schedule.reverse_step_ms": lambda: incl("schedule.reverse_step"),
        "pgs.denoiser_calls": lambda: get("models.denoiser").calls / n,
        "pgs.patches_per_call": lambda: ratio(evaluations, get("models.denoiser").calls),
        **{f"pgs.nfe_{g.value}": (lambda g=g: mean([r.group_nfe.get(g, 0) for r in reports]))
           for g in LABELS},
        **{f"confidence.patches_{g.value}": (lambda g=g: mean([r.group_counts.get(g, 0) for r in reports]))
           for g in LABELS},
        "models.denoiser_ms": lambda: incl("models.denoiser"),
        "models.denoiser_ms_per_nfe": lambda: ratio(incl("models.denoiser", per=1), evaluations),
        "models.dit_self_attn_ms": lambda: incl("models.dit_self_attn"),
        "models.dit_cross_attn_ms": lambda: incl("models.dit_cross_attn"),
        # what the DiT spends outside attention and prompt encoding: FF, embeddings
        "models.dit_ff_other_ms": lambda: (get("models.denoiser").self_ns / 1e6 / n
                                           if w.denoiser == "dit" else 0.0),
        "models.dit_prompt_encode_ms": lambda: incl("models.dit_prompt_encode"),
        # encodes per conditioned patch; 1 would mean no encode is repeated
        "models.dit_prompt_encodes_per_patch": lambda: ratio(
            get("models.dit_prompt_encode").calls,
            get("rtm.retrieve_topk").calls - get("rtm.retrieve_topk").errors),
        "tiling.recompose_ms": lambda: incl("tiling.recompose"),
        "colornorm.ms": lambda: incl("colornorm.wavelet_color_normalize"),
        "gridio.load_ms": lambda: incl("gridio.load_grid"),
        "gridio.save_ms": lambda: incl("gridio.save_grid"),
        "checkpoint.load_ms": lambda: incl("checkpoint.load_params", per_setup, n_setups),
        "rtm.build_ms": lambda: incl("rtm.build_memory", per_setup, n_setups),
        "rtm.load_ms": lambda: incl("rtm.load_memory", per_setup, n_setups),
        "trace.overhead_ms": lambda: overhead_ms,
        "trace.overhead_pct": lambda: 100.0 * ratio(overhead_ms, base_ms),
    }
    out = {}
    for name, fn in metrics.items():
        try:
            out[name] = float(fn())
        except _Missing:
            out[name] = None
    return out


# ---------------------------------------------------------------------------
# one benchmark process

TRACED_SETUPS = 3


def bench(w: Workload, seed: int, seconds: float, trace: bool, golden: dict,
          work: Path) -> dict:
    """Set up, warm up for WARMUP_S (at least one image), time repeated
    set-ups, then measure images for `seconds`.

    Untraced: end-to-end metrics.  Traced: half the time untraced, half
    traced, and the per-layer metrics plus the difference as overhead.
    """
    run = Run(w, seed, golden, work)
    warmup = run.loop(set_up(w, run.inputs, work), WARMUP_S)  # checked, not timed
    prog, setups = timed_setups(w, run.inputs, work)
    if not trace:
        timed = run.loop(prog, seconds)
        values, notes = e2e_metrics(w, timed, setups)
        units = E2E_UNITS
    else:
        untraced = run.loop(prog, seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            for i in range(TRACED_SETUPS):
                tracer.image = f"setup-{i}"
                prog = tracer.call("bench.setup", set_up, w, run.inputs, work)
            timed = run.loop(prog, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(work / f"spans-seed{seed}.json", {"workload": w.name, "seed": seed})
        values = layer_metrics(w, tracer, timed, untraced, TRACED_SETUPS)
        notes = {"trace.overhead_ms": f"{len(timed)} traced vs {len(untraced)} "
                                      "untraced images, per image"}
        units = LAYER_UNITS
    metrics = {}
    for name, unit in units.items():
        v = values[name]
        if v is None:
            metrics[name] = {"value": None, "unit": unit, "missing": True}
        else:
            metrics[name] = {"value": v if np.isfinite(v) else None, "unit": unit}
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "loop": "closed loop, 1 client, 1 process", "env": environment(),
        "warmup_images": len(warmup), "timed_images": len(timed),
        "correct": run.correct, "attempted": len(run.images), "failed": run.failed,
        "fail_frac": run.failed / len(run.images), "problems": run.problems,
        "metrics": metrics, "notes": notes,
        "image_ms": [round(img.ms, 3) for img in run.images],
    }


def print_report(result: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
          f"  {result['loop']}; images: {result['warmup_images']} warm-up (not timed),"
          f" {result['timed_images']} timed")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    rows = dict(result["metrics"])
    rows["fail_frac"] = {"value": result["fail_frac"], "unit": "ratio"}
    notes = {**result["notes"],
             "fail_frac": f"{result['failed']} of {result['attempted']} images"}
    for name, m in rows.items():
        value = ("missing" if m.get("missing") else
                 "n/a" if m["value"] is None else f"{m['value']:.6g}")
        print(f"  {name:<38} {value:>12} {m['unit']:<7} {notes.get(name, '')}")
    for p in result["problems"]:
        print(f"problem: {p}")


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS.get(workload)
    if w is None:
        print(f"unknown workload '{workload}'; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = HERE / "out" / w.name
    result = bench(w, seed, seconds, trace, load_golden(), work)
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1
