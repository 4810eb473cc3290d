"""Command-line interface: data generation, toy training, RTM, inference, bench."""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import checkpoint, gridio, pipeline
from .errors import (ConfigError, DegenerateQueryError, DimensionMismatchError,
                     FormatError, NumericError, StageError)
from .models import (GaussianOracleDenoiser, GaussianOracleStats,
                     GlobalRestorer, PatchDiT, make_dit_gaussian_objective,
                     make_grm_objective, train_toy)
from .pipeline import PipelineConfig, make_scene
from .rtm import (TextureExtractor, compact_memory, index_patches, load_memory,
                  retrieve_topk, save_memory)
from .tiling import decompose


# shared flag -> the PipelineConfig field it sets; pipeline.coerce_field parses
# the text, as it does a config file's, so each field's type is declared once
_SHARED_FLAGS = {"--seed": "seed", "--gamma1": "gamma1", "--gamma2": "gamma2",
                 "--tau": "taus", "--steps": "steps", "--patch-size": "patch",
                 "--overlap": "overlap", "--topk": "topk"}


def _add_shared(p: argparse.ArgumentParser):
    p.add_argument("--config", type=Path, help="key=value config file")
    for flag, key in _SHARED_FLAGS.items():
        p.add_argument(flag, dest=key, help=f"config field '{key}'")


def _build_config(args) -> PipelineConfig:
    fields = pipeline.parse_config_file(args.config) if args.config else {}
    for key in _SHARED_FLAGS.values():
        val = getattr(args, key)
        if val is not None:
            fields[key] = pipeline.coerce_field(key, val)
    return PipelineConfig(**fields)


def _positive_int(text: str) -> int:
    """argparse type for counts and sizes: a bad value exits 2 at parse time."""
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: '{text}'") from None
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {val}")
    return val


def _fraction(text: str) -> float:
    """argparse type for a share: a finite value in [0, 1]."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: '{text}'") from None
    if not 0.0 <= val <= 1.0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return val


def _size(text: str) -> tuple[int, int]:
    """argparse type for an HxW scene size of two positive integers."""
    try:
        h, w = (int(s) for s in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size '{text}', expected HxW") from None
    if h < 1 or w < 1:
        raise argparse.ArgumentTypeError(f"size must be positive, got {h}x{w}")
    return h, w


def _section_shape(loaded: dict, name: str, ndim: int) -> tuple[int, ...]:
    """Shape of the checkpoint section a model is sized from."""
    arr = loaded.get(name)
    if arr is None or arr.ndim != ndim:
        raise DimensionMismatchError(f"checkpoint has no {ndim}-D section '{name}'")
    return arr.shape


def _load_grm(cfg: PipelineConfig, path, channels=1) -> GlobalRestorer:
    if not path:
        return GlobalRestorer(channels=channels, seed=cfg.seed)
    loaded = checkpoint.load_params(path)
    # conv1.w is (hidden, channels, 3, 3); size the model to the checkpoint
    hidden, channels = _section_shape(loaded, "conv1.w", 4)[:2]
    grm = GlobalRestorer(channels=channels, hidden=hidden, seed=cfg.seed)
    checkpoint.restore_into(grm, loaded)
    return grm


def _make_denoiser(cfg: PipelineConfig, dit_path, reference: np.ndarray):
    """The PatchDiT in dit_path, or without one the Gaussian oracle."""
    if not dit_path:
        stats = GaussianOracleStats(mean=float(reference.mean()),
                                    var=max(float(reference.var()), 1e-6))
        return GaussianOracleDenoiser(stats, cfg.schedule())
    loaded = checkpoint.load_params(dit_path)
    # embed.w is (channels, width) and each block has one b<i>.sa.wq; size
    # the model to the checkpoint, restore_into then checks the patch size
    width = _section_shape(loaded, "embed.w", 2)[1]
    depth = sum(name.endswith(".sa.wq") for name in loaded)
    dit = PatchDiT(channels=reference.shape[0], patch=cfg.patch, width=width,
                   depth=depth, seed=cfg.seed)
    checkpoint.restore_into(dit, loaded)
    return dit


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    cfg = _build_config(args)
    h, w = args.size
    scene = make_scene(h, w, seed=cfg.seed, channels=args.channels,
                       patch=cfg.patch, texture_frac=args.texture_frac,
                       factor=cfg.factor)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gridio.save_grid(out / "hr.psg", scene.hr)
    gridio.save_grid(out / "lr.psg", scene.lr)
    gridio.save_grid(out / "mask.psg", scene.texture_mask[None].astype(np.float32))
    if args.channels in (1, 3):  # PGM and PPM hold one or three channels
        gridio.export_pnm(out / ("hr.pgm" if args.channels == 1 else "hr.ppm"),
                          scene.hr)
    print(f"wrote scene {h}x{w} to {out}")
    return 0


def _scene_pair_sampler(cfg: PipelineConfig, channels: int):
    # square crops of the smallest side of at least 48 that both the patch
    # size and the factor divide, textured in tiles of the patch size
    step = math.lcm(cfg.patch, cfg.factor)
    crop = -(-48 // step) * step

    def sampler(rng):
        scene = make_scene(crop, crop, seed=int(rng.integers(1 << 31)),
                           channels=channels, patch=cfg.patch, factor=cfg.factor)
        lr_up = pipeline.nearest_upsample(scene.lr, cfg.factor)
        return lr_up, scene.hr
    return sampler


def cmd_train_grm(args):
    cfg = _build_config(args)
    grm = GlobalRestorer(channels=args.channels, hidden=args.hidden, seed=cfg.seed)
    objective = make_grm_objective(grm, _scene_pair_sampler(cfg, args.channels))
    trace = train_toy(grm.params, objective, steps=args.train_steps,
                      lr=args.lr, seed=cfg.seed)
    checkpoint.save_params(args.out, grm.params)
    print(f"trained GRM for {len(trace)} steps; "
          f"loss {trace[0]:.4f} -> {trace[-1]:.4f}; saved to {args.out}")
    return 0


def cmd_train_dit(args):
    cfg = _build_config(args)
    dit = PatchDiT(channels=args.channels, patch=cfg.patch,
                   width=args.width, depth=args.depth, seed=cfg.seed)
    stats = GaussianOracleStats(mean=0.0, var=1.0)
    objective = make_dit_gaussian_objective(dit, cfg.schedule(), stats,
                                            batch=args.batch)
    trace = train_toy(dit.params, objective, steps=args.train_steps,
                      lr=args.lr, seed=cfg.seed)
    checkpoint.save_params(args.out, dit.params)
    print(f"trained Patch-DiT for {len(trace)} steps; "
          f"loss {trace[0]:.4f} -> {trace[-1]:.4f}; saved to {args.out}")
    return 0


def cmd_rtm_build(args):
    cfg = _build_config(args)
    grids = [gridio.load_grid(p) for p in args.src]
    shape = (grids[0].shape[0], cfg.patch, cfg.patch)
    extractor = TextureExtractor(shape, seed=cfg.seed)
    patches = []
    for path, g in zip(args.src, grids):
        if g.shape[0] != shape[0] or min(g.shape[1:]) < cfg.patch:
            raise DimensionMismatchError(f"{path}: grid {g.shape} does not hold "
                                         f"{shape} patches")
        patches += decompose(g, cfg.patch, 0)[0]
    keys, indexed = index_patches(patches, extractor)
    mem = compact_memory(keys, indexed, args.size, extractor.seed)
    save_memory(mem, args.out)
    print(f"built texture memory: {len(indexed)} source patches -> "
          f"{mem.count} entries at {args.out}")
    return 0


def cmd_rtm_query(args):
    cfg = _build_config(args)
    mem = load_memory(args.mem)
    patch = gridio.load_grid(args.patch_file)
    if patch.shape != mem.values.shape[1:]:
        raise DimensionMismatchError(f"patch {patch.shape} != memory patches "
                                     f"{mem.values.shape[1:]}")
    try:
        res = retrieve_topk(mem, patch, mem.extractor(), cfg.topk)
    except DegenerateQueryError as e:
        raise FormatError(f"{args.patch_file}: featureless patch, {e}") from e
    for idx, sim in zip(res.indices, res.similarities):
        print(f"{idx} {sim:.6f}")
    return 0


def cmd_sr(args):
    cfg = _build_config(args)
    lr = gridio.load_grid(args.input)
    grm = _load_grm(cfg, args.grm, channels=lr.shape[0])
    denoiser = _make_denoiser(cfg, args.dit, lr)
    memory = load_memory(args.rtm) if args.rtm else None
    sr, report = pipeline.superresolve(cfg, lr, grm, denoiser, memory)
    gridio.save_grid(args.output, sr)
    sys.stdout.write(report.to_text())
    return 0


def cmd_bench(args):
    cfg = _build_config(args)
    h, w = args.size
    scene = make_scene(h, w, seed=cfg.seed, channels=args.channels,
                       patch=cfg.patch, texture_frac=args.texture_frac,
                       factor=cfg.factor)
    grm = _load_grm(cfg, args.grm, channels=args.channels)
    denoiser = _make_denoiser(cfg, args.dit, scene.hr)
    result = pipeline.benchmark(cfg, scene, grm, denoiser, repeats=args.repeats)
    sys.stdout.write(pipeline.format_benchmark(result))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="patchscaler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a labeled synthetic scene")
    _add_shared(p)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=_size, default="64x64")
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--texture-frac", type=_fraction, default=0.5)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train-grm", help="train the toy coarse restorer")
    _add_shared(p)
    p.add_argument("--out", required=True)
    p.add_argument("--train-steps", type=_positive_int, default=1500)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--hidden", type=_positive_int, default=16)
    p.set_defaults(func=cmd_train_grm)

    p = sub.add_parser("train-dit", help="train the toy patch denoiser on Gaussian data")
    _add_shared(p)
    p.add_argument("--out", required=True)
    p.add_argument("--train-steps", type=_positive_int, default=2000)
    p.add_argument("--lr", type=float, default=3e-3)
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--width", type=_positive_int, default=32)
    p.add_argument("--depth", type=_positive_int, default=2)
    p.add_argument("--batch", type=_positive_int, default=8)
    p.set_defaults(func=cmd_train_dit)

    p = sub.add_parser("rtm", help="texture memory operations")
    rtm_sub = p.add_subparsers(dest="rtm_command", required=True)
    q = rtm_sub.add_parser("build")
    _add_shared(q)
    q.add_argument("--src", nargs="+", required=True, help="PSG1 grid files to index")
    q.add_argument("--out", required=True)
    q.add_argument("--size", type=_positive_int, default=200)
    q.set_defaults(func=cmd_rtm_build)
    q = rtm_sub.add_parser("query")
    _add_shared(q)
    q.add_argument("--mem", required=True)
    q.add_argument("--patch", dest="patch_file", required=True)
    q.set_defaults(func=cmd_rtm_query)

    p = sub.add_parser("sr", help="super-resolve a PSG1 grid")
    _add_shared(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--grm", help="GRM checkpoint")
    p.add_argument("--dit", help="Patch-DiT checkpoint; without it the oracle denoises")
    p.add_argument("--rtm", help="texture memory file")
    p.set_defaults(func=cmd_sr)

    p = sub.add_parser("bench", help="adaptive vs unified sampling benchmark")
    _add_shared(p)
    p.add_argument("--size", type=_size, default="96x96")
    p.add_argument("--channels", type=_positive_int, default=1)
    p.add_argument("--texture-frac", type=_fraction, default=0.5)
    p.add_argument("--repeats", type=_positive_int, default=1)
    p.add_argument("--grm", help="GRM checkpoint")
    p.add_argument("--dit", help="Patch-DiT checkpoint; without it the oracle denoises")
    p.set_defaults(func=cmd_bench)
    return parser


# exit code and message label of each error main reports; a StageError exits
# as its cause would (3 for a cause not listed), under the label "error"
_EXITS = ((ConfigError, 2, "config error"), (OSError, 3, "i/o error"),
          (NumericError, 4, "numeric failure"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (StageError, *(kind for kind, _, _ in _EXITS)) as e:
        cause = e.cause if isinstance(e, StageError) else e
        code, label = next(((code, label) for kind, code, label in _EXITS
                            if isinstance(cause, kind)), (3, "error"))
        print(f"{'error' if cause is not e else label}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
