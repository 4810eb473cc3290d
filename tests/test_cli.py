import re
import shlex
import struct
from pathlib import Path

import numpy as np
import pytest

from patchscaler import cli
from patchscaler.checkpoint import save_params
from patchscaler.gridio import load_grid, save_grid
from patchscaler.models import GlobalRestorer, PatchDiT
from patchscaler.pipeline import PipelineConfig, make_scene, nearest_upsample
from patchscaler.rtm import (TextureExtractor, TextureMemory, build_memory,
                             load_memory, save_memory)
from patchscaler.tiling import decompose

README = Path(__file__).resolve().parents[1] / "README.md"


def test_gen_data_writes_scene(tmp_path, capsys):
    out = tmp_path / "scene"
    rc = cli.main(["gen-data", "--out", str(out), "--size", "64x64",
                   "--seed", "1"])
    assert rc == 0
    hr = load_grid(out / "hr.psg")
    lr = load_grid(out / "lr.psg")
    mask = load_grid(out / "mask.psg")
    assert hr.shape == (1, 64, 64)
    assert lr.shape == (1, 32, 32)
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert (out / "hr.pgm").exists()
    assert "wrote scene 64x64" in capsys.readouterr().out


def test_gen_data_two_channels_writes_grids_without_preview(tmp_path, capsys):
    # PGM/PPM hold one or three channels; other counts get the grids only
    out = tmp_path / "scene"
    assert cli.main(["gen-data", "--out", str(out), "--size", "32x32",
                     "--channels", "2", "--seed", "1"]) == 0
    assert load_grid(out / "hr.psg").shape == (2, 32, 32)
    assert load_grid(out / "lr.psg").shape == (2, 16, 16)
    assert load_grid(out / "mask.psg").shape == (1, 32, 32)
    assert sorted(f.name for f in out.iterdir()) == ["hr.psg", "lr.psg", "mask.psg"]


def test_train_grm_and_sr_roundtrip(tmp_path, capsys):
    scene_dir = tmp_path / "scene"
    assert cli.main(["gen-data", "--out", str(scene_dir), "--size", "32x32",
                     "--seed", "2"]) == 0
    ckpt = tmp_path / "grm.psck"
    rc = cli.main(["train-grm", "--out", str(ckpt), "--train-steps", "30",
                   "--hidden", "4", "--seed", "0"])
    assert rc == 0
    assert ckpt.exists()
    assert "trained GRM" in capsys.readouterr().out

    out = tmp_path / "sr.psg"
    rc = cli.main(["sr", "--input", str(scene_dir / "lr.psg"),
                   "--output", str(out), "--grm", str(ckpt), "--seed", "0"])
    assert rc == 0
    sr = load_grid(out)
    assert sr.shape == (1, 32, 32)
    text = capsys.readouterr().out
    assert "nfe_total" in text and "ratio" in text


def test_scene_pair_sampler_crops_to_the_patch_size_and_factor():
    # at the default patch 16 and factor 2 the crop stays 48x48, so training
    # draws the scenes it drew before
    cfg = PipelineConfig()
    lr_up, hr = cli._scene_pair_sampler(cfg, 1)(np.random.Generator(np.random.PCG64(7)))
    seed = int(np.random.Generator(np.random.PCG64(7)).integers(1 << 31))
    scene = make_scene(48, 48, seed=seed, patch=16, factor=2)
    assert np.array_equal(hr, scene.hr)
    assert np.array_equal(lr_up, nearest_upsample(scene.lr, 2))
    # the smallest side of at least 48 that 10 and 3 divide, and the patch
    # size above 48
    for patch, factor, side in ((10, 3, 60), (64, 2, 64)):
        cfg = PipelineConfig(patch=patch, factor=factor)
        lr_up, hr = cli._scene_pair_sampler(cfg, 2)(np.random.Generator(np.random.PCG64(7)))
        assert hr.shape == lr_up.shape == (2, side, side)


def test_train_grm_at_a_patch_size_that_does_not_divide_48(tmp_path, capsys):
    ckpt = tmp_path / "grm.psck"
    assert cli.main(["train-grm", "--out", str(ckpt), "--train-steps", "2",
                     "--hidden", "4", "--patch-size", "10", "--seed", "0"]) == 0
    assert ckpt.exists()
    assert "trained GRM for 2 steps" in capsys.readouterr().out

def test_train_dit_divergence_exits_4(tmp_path, capsys):
    ckpt = tmp_path / "dit.psck"
    rc = cli.main(["train-dit", "--out", str(ckpt), "--lr", "nan", "--train-steps", "2",
                   "--width", "8", "--depth", "1", "--batch", "2", "--seed", "0"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("numeric failure")
    assert not ckpt.exists()


def test_train_dit_small(tmp_path, capsys):
    ckpt = tmp_path / "dit.psck"
    rc = cli.main(["train-dit", "--out", str(ckpt), "--train-steps", "5",
                   "--width", "8", "--depth", "1", "--batch", "2",
                   "--seed", "0"])
    assert rc == 0
    assert ckpt.exists()
    assert "trained Patch-DiT" in capsys.readouterr().out


def test_dit_and_rtm_workflow(tmp_path, capsys):
    # gen-data -> train-dit -> rtm build -> sr with the trained DiT and the
    # memory: the retrieval stage and the prompted denoiser run end to end
    geometry = ["--patch-size", "8", "--overlap", "2", "--seed", "0"]
    scene = tmp_path / "scene"
    assert cli.main(["gen-data", "--out", str(scene), "--size", "32x32",
                     *geometry]) == 0
    dit = tmp_path / "dit.psck"
    assert cli.main(["train-dit", "--out", str(dit), "--train-steps", "2",
                     "--width", "8", "--depth", "1", "--batch", "2",
                     *geometry]) == 0
    mem = tmp_path / "mem.rtm"
    assert cli.main(["rtm", "build", "--src", str(scene / "hr.psg"), "--out", str(mem),
                     "--size", "4", *geometry]) == 0
    capsys.readouterr()
    out = tmp_path / "sr.psg"
    rc = cli.main(["sr", "--input", str(scene / "lr.psg"), "--output", str(out),
                   "--dit", str(dit), "--rtm", str(mem),
                   "--steps", "2,3,4", *geometry])
    assert rc == 0
    assert load_grid(out).shape == (1, 32, 32)
    ledger = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert int(ledger["nfe_total"]) > 0 and "ratio" in ledger


def test_readme_commands_parse():
    # every `patchscaler ...` line of the README's sh blocks is a valid command
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("patchscaler ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_rtm_build_and_query(tmp_path, capsys):
    src = tmp_path / "grids"
    src.mkdir()
    rng = np.random.Generator(np.random.PCG64(3))
    for i in range(3):
        save_grid(src / f"g{i}.psg",
                  rng.standard_normal((1, 32, 32)).astype(np.float32))
    mem = tmp_path / "mem.rtm"
    rc = cli.main(["rtm", "build", "--src", *(str(src / f"g{i}.psg") for i in range(3)),
                   "--out", str(mem), "--size", "8", "--seed", "0"])
    assert rc == 0
    assert "8 entries" in capsys.readouterr().out

    patch = tmp_path / "q.psg"
    save_grid(patch, rng.standard_normal((1, 16, 16)).astype(np.float32))
    rc = cli.main(["rtm", "query", "--mem", str(mem), "--patch", str(patch),
                   "--topk", "3", "--seed", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    sims = [float(line.split()[1]) for line in lines]
    assert sims == sorted(sims, reverse=True)


def test_rtm_build_indexes_only_the_given_grids(tmp_path, capsys):
    # --src names grid files: the memory of a scene's hr.psg holds HR patches
    # only, no LR or mask tile; a directory is not a grid file and exits 3
    scene = tmp_path / "scene"
    assert cli.main(["gen-data", "--out", str(scene), "--size", "32x32",
                     "--patch-size", "8", "--seed", "1"]) == 0
    mem = tmp_path / "mem.rtm"
    assert cli.main(["rtm", "build", "--src", str(scene / "hr.psg"), "--out", str(mem),
                     "--size", "16", "--patch-size", "8"]) == 0
    assert "16 source patches -> 16 entries" in capsys.readouterr().out
    hr_patches = decompose(load_grid(scene / "hr.psg"), 8, 0)[0]
    values = load_memory(mem).values
    assert len(values) == 16
    assert all(any(np.array_equal(v, p) for p in hr_patches) for v in values)

    rc = cli.main(["rtm", "build", "--src", str(scene), "--out", str(tmp_path / "dir.rtm"),
                   "--size", "4", "--patch-size", "8"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("i/o error")
    assert not (tmp_path / "dir.rtm").exists()


def test_rtm_build_extracts_each_source_patch_once(tmp_path, capsys, monkeypatch):
    # two of the four 16x16 patches are all zeros, hence featureless: the
    # extractor sees each patch once, and the line counts the two it indexed
    grid = np.random.Generator(np.random.PCG64(5)).standard_normal((1, 32, 32))
    grid[:, :16, 16:] = 0.0
    grid[:, 16:, :16] = 0.0
    src = tmp_path / "g.psg"
    save_grid(src, grid.astype(np.float32))
    calls = []
    extract = TextureExtractor.__call__

    def counted(self, patch):
        calls.append(patch)
        return extract(self, patch)

    monkeypatch.setattr(TextureExtractor, "__call__", counted)
    rc = cli.main(["rtm", "build", "--src", str(src), "--out", str(tmp_path / "m.rtm"),
                   "--size", "2"])
    assert rc == 0
    assert len(calls) == 4
    assert "2 source patches -> 2 entries" in capsys.readouterr().out


@pytest.mark.parametrize("odd_shape", [(3, 32, 32), (1, 32, 12)])
def test_rtm_build_rejects_an_unfit_grid(tmp_path, capsys, odd_shape):
    # another channel count than the first grid, or a side below the patch
    # size, exits 3 and names the file
    src = tmp_path / "grids"
    src.mkdir()
    rng = np.random.Generator(np.random.PCG64(4))
    save_grid(src / "a.psg", rng.standard_normal((1, 32, 32)).astype(np.float32))
    save_grid(src / "b.psg", rng.standard_normal(odd_shape).astype(np.float32))
    rc = cli.main(["rtm", "build", "--src", str(src / "a.psg"), str(src / "b.psg"),
                   "--out", str(tmp_path / "m.rtm"), "--size", "2", "--patch-size", "16"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and "b.psg" in err
    assert not (tmp_path / "m.rtm").exists()


@pytest.mark.parametrize("grid, size", [(np.zeros((1, 32, 32), np.float32), 1),
                                        (np.ones((1, 32, 32), np.float32), 5)])
def test_rtm_build_without_enough_patches_exits_2(tmp_path, capsys, grid, size):
    # an all-zero grid has no patch with a feature to index; a 32x32 grid has
    # four 16x16 patches, fewer than --size 5
    src = tmp_path / "g.psg"
    save_grid(src, grid)
    mem = tmp_path / "m.rtm"
    rc = cli.main(["rtm", "build", "--src", str(src), "--out", str(mem),
                   "--size", str(size)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error")
    assert not mem.exists()


def test_rtm_query_featureless_patch_exits_3(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert cli.main(["gen-data", "--out", str(scene), "--size", "32x32"]) == 0
    mem = tmp_path / "m.rtm"
    assert cli.main(["rtm", "build", "--src", str(scene / "hr.psg"), "--out", str(mem),
                     "--size", "4"]) == 0
    zeros = tmp_path / "zeros.psg"
    save_grid(zeros, np.zeros((1, 16, 16), np.float32))
    capsys.readouterr()
    assert cli.main(["rtm", "query", "--mem", str(mem), "--patch", str(zeros)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("i/o error") and "zeros.psg" in err


def test_rtm_query_uses_the_extractor_in_the_file(tmp_path, capsys):
    # --seed does not reach the feature map: the memory names its own, so a
    # query under another seed finds the same neighbours
    src = tmp_path / "grids"
    src.mkdir()
    rng = np.random.Generator(np.random.PCG64(6))
    save_grid(src / "g.psg", rng.standard_normal((1, 32, 32)).astype(np.float32))
    mem = tmp_path / "mem.rtm"
    assert cli.main(["rtm", "build", "--src", str(src / "g.psg"), "--out", str(mem),
                     "--size", "4", "--seed", "0"]) == 0
    patch = tmp_path / "q.psg"
    save_grid(patch, rng.standard_normal((1, 16, 16)).astype(np.float32))
    capsys.readouterr()
    printed = []
    for seed in ("0", "5"):
        assert cli.main(["rtm", "query", "--mem", str(mem), "--patch", str(patch),
                         "--topk", "4", "--seed", seed]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and len(printed[0].splitlines()) == 4

    # an RTM1 file, a patch of another shape, keys of another width
    small = tmp_path / "small.psg"
    save_grid(small, rng.standard_normal((1, 12, 12)).astype(np.float32))
    old = tmp_path / "old.rtm"
    old.write_bytes(b"RTM1" + mem.read_bytes()[4:])
    narrow = tmp_path / "narrow.rtm"
    save_memory(TextureMemory(keys=np.eye(4, 8, dtype=np.float32),
                              values=np.ones((4, 1, 16, 16), np.float32)), narrow)
    for m, p in ((old, patch), (mem, small), (narrow, patch)):
        assert cli.main(["rtm", "query", "--mem", str(m), "--patch", str(p)]) == 3
        assert capsys.readouterr().err.startswith("i/o error")


def test_bench_runs(tmp_path, capsys):
    rc = cli.main(["bench", "--size", "32x32", "--seed", "4",
                   "--texture-frac", "0.25"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nfe_pgs" in text and "ratio" in text


def test_bench_with_checkpoints(tmp_path, capsys):
    grm, dit = tmp_path / "grm.psck", tmp_path / "dit.psck"
    assert cli.main(["train-grm", "--out", str(grm), "--train-steps", "2",
                     "--hidden", "4", "--seed", "0"]) == 0
    assert cli.main(["train-dit", "--out", str(dit), "--train-steps", "2",
                     "--width", "8", "--depth", "1", "--batch", "2", "--seed", "0"]) == 0
    capsys.readouterr()
    assert cli.main(["bench", "--size", "32x32", "--seed", "4",
                     "--grm", str(grm), "--dit", str(dit)]) == 0
    ledger = dict(line.split() for line in capsys.readouterr().out.splitlines())
    assert list(ledger) == ["count_simple", "count_medium", "count_hard", "nfe_pgs",
                            "nfe_unified", "ratio", "mse_pgs", "mse_unified",
                            "wall_ms_pgs", "wall_ms_unified"]
    assert sum(int(ledger[f"count_{g}"]) for g in ("simple", "medium", "hard")) == 9
    assert float(ledger["nfe_pgs"]) <= float(ledger["nfe_unified"])

def test_exit_code_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus_key 1\n")
    rc = cli.main(["bench", "--size", "32x32", "--config", str(cfg)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    cfg.write_text("patch abc\n")
    assert cli.main(["bench", "--size", "32x32", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error")
    # invalid group schedule surfaces as a config failure too
    assert cli.main(["bench", "--size", "32x32", "--steps", "30,14,20"]) == 2
    # so does a factor that does not divide the scene size
    cfg.write_text("factor 3\n")
    for argv in (["bench"], ["gen-data", "--out", str(tmp_path / "scene")]):
        assert cli.main([*argv, "--size", "32x32", "--config", str(cfg)]) == 2
        assert "factor 3" in capsys.readouterr().err
    assert not (tmp_path / "scene").exists()


def test_schedule_too_long_to_allocate_exits_2_on_every_subcommand(tmp_path, capsys):
    # numpy refuses the tables of this T without allocating (711 PiB)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("T 100000000000000000\n")
    out = str(tmp_path / "out")
    for argv in (["gen-data", "--out", out], ["train-grm", "--out", out],
                 ["train-dit", "--out", out], ["rtm", "build", "--src", out, "--out", out],
                 ["rtm", "query", "--mem", out, "--patch", out],
                 ["sr", "--input", out, "--output", out], ["bench"]):
        assert cli.main([*argv, "--config", str(cfg)]) == 2
        assert "config error: T=100000000000000000 is too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("levels", [10, 40, 70, 10**18, 2**63])
def test_levels_past_the_grid_and_the_patch_exit_2_at_upsample(tmp_path, capsys, levels):
    # 2**10 would pad the 32x32 upsampled grid to 1024x1024 (7225 Hard
    # patches); 2**40 and 2**70 are pads numpy cannot make at all, and
    # 2**(10**18) is an integer Python cannot make
    lr, cfg = tmp_path / "lr.psg", tmp_path / "run.cfg"
    save_grid(lr, np.zeros((1, 16, 16), np.float32))
    cfg.write_text(f"levels {levels}\n")
    out = tmp_path / "out.psg"
    rc = cli.main(["sr", "--input", str(lr), "--output", str(out), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stage 'upsample' failed" in err and f"levels={levels}" in err
    assert not out.exists()


def test_factor_past_what_numpy_allocates_exits_2_at_upsample(tmp_path, capsys):
    # a 1x1 grid upsampled 10**7 times is 364 TiB in float32, past the
    # x86-64 address space: refused before the first repeat fills anything
    lr, cfg = tmp_path / "lr.psg", tmp_path / "run.cfg"
    save_grid(lr, np.zeros((1, 1, 1), np.float32))
    cfg.write_text("factor 10000000\n")
    out = tmp_path / "out.psg"
    rc = cli.main(["sr", "--input", str(lr), "--output", str(out), "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'upsample' failed: factor=10000000 is too large")
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    # sizes past the 128 TiB x86-64 address space, so numpy refuses them
    # whatever the host's overcommit policy, and nothing is filled
    (["gen-data", "--out", "scene", "--size", "100000000x100000000"],
     "size 100000000x100000000"),
    (["bench", "--size", "100000000x100000000"], "size 100000000x100000000"),
    (["train-grm", "--out", "grm.psck", "--hidden", "100000000"], "hidden=100000000"),
    (["train-dit", "--out", "dit.psck", "--width", "100000000"], "width=100000000"),
])
def test_unallocatable_size_flags_exit_2(tmp_path, capsys, monkeypatch, argv, named):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named} is too large")
    assert not any(tmp_path.iterdir())


def test_config_file_not_utf8_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"\xffpatch 8\n")
    assert cli.main(["bench", "--size", "32x32", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and str(cfg) in err
    # a missing config file is still an i/o error
    missing = ["bench", "--size", "32x32", "--config", str(tmp_path / "none.cfg")]
    assert cli.main(missing) == 3


@pytest.mark.parametrize("flags", [["--steps", "8,14"], ["--tau", "a,b,c"],
                                   ["--steps", "20,14,8"],
                                   ["--tau", "400,700,2000"],
                                   ["--gamma1", "0.5", "--gamma2", "0.9"],
                                   ["--topk", "0"], ["--seed", "-1"],
                                   ["--config", "levels -1"],
                                   ["--config", "levels 0"],
                                   ["--config", "beta_end 2.0"],
                                   ["--config", "colornorm banana"],
                                   ["--steps", "0,14,20"]])
def test_bad_group_flags_fail_at_parse_time(tmp_path, capsys, flags):
    # the input file is missing, so exit 2 (not 3) shows the config was
    # rejected before anything was loaded or run
    if flags[0] == "--config":  # the value is the text of a config file
        cfg = tmp_path / "run.cfg"
        cfg.write_text(flags[1] + "\n")
        flags = ["--config", str(cfg)]
    rc = cli.main(["sr", "--input", str(tmp_path / "missing.psg"),
                   "--output", str(tmp_path / "out.psg"), *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error")


def test_exit_code_io_error(tmp_path, capsys):
    rc = cli.main(["sr", "--input", str(tmp_path / "missing.psg"),
                   "--output", str(tmp_path / "out.psg")])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err
    bad = tmp_path / "bad.psg"
    bad.write_bytes(b"garbage")
    rc = cli.main(["sr", "--input", str(bad),
                   "--output", str(tmp_path / "out.psg")])
    assert rc == 3


@pytest.mark.parametrize("header", [b"PSG1 a b c\n", b"PSG1 -1 4 4\n"])
def test_bad_grid_header_exits_3(tmp_path, capsys, header):
    bad = tmp_path / "bad.psg"
    bad.write_bytes(header + bytes(64))
    rc = cli.main(["sr", "--input", str(bad), "--output", str(tmp_path / "out.psg")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("i/o error")


@pytest.mark.parametrize("sections", [
    # one section declaring a (2^31, 2^31) shape over a few payload bytes
    (1, struct.pack("<H", 7) + b"conv1.w" + struct.pack("<B2I", 2, 2**31, 2**31)
     + bytes(64)),
    # a well-formed checkpoint without the section the GRM is sized from
    (0, b""),
])
def test_bad_checkpoint_exits_3(tmp_path, capsys, sections):
    count, body = sections
    ckpt = tmp_path / "bad.psck"
    ckpt.write_bytes(b"PSCK" + struct.pack("<II", 1, count) + body)
    lr = tmp_path / "lr.psg"
    save_grid(lr, np.zeros((1, 16, 16), np.float32))
    rc = cli.main(["sr", "--input", str(lr), "--output", str(tmp_path / "out.psg"),
                   "--grm", str(ckpt)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("i/o error")


def test_oversized_memory_header_exits_3(tmp_path, capsys):
    mem = tmp_path / "huge.rtm"
    mem.write_bytes(b"RTM2" + struct.pack("<4IQ", 2**31, 2**31, 1, 16, 0) + bytes(64))
    patch = tmp_path / "q.psg"
    save_grid(patch, np.ones((1, 16, 16), np.float32))
    rc = cli.main(["rtm", "query", "--mem", str(mem), "--patch", str(patch)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("i/o error")


def test_nan_input_is_numeric_error_at_grm(tmp_path, capsys):
    lr = np.zeros((1, 16, 16), np.float32)
    lr[0, 3, 5] = np.nan
    path = tmp_path / "nan.psg"
    save_grid(path, lr)
    rc = cli.main(["sr", "--input", str(path), "--output", str(tmp_path / "out.psg")])
    assert rc == 4
    assert "stage 'grm' failed" in capsys.readouterr().err

    # a finite input through a GRM checkpoint with a NaN confidence head
    grm = GlobalRestorer(channels=1, hidden=4, seed=0)
    grm.params["conf.w"][0] = np.nan
    ckpt = tmp_path / "nan.psck"
    save_params(ckpt, grm.params)
    save_grid(path, np.zeros((1, 16, 16), np.float32))
    rc = cli.main(["sr", "--input", str(path), "--output", str(tmp_path / "out.psg"),
                   "--grm", str(ckpt)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "stage 'grm' failed" in err and "confidence map is not finite" in err


def test_signalling_nan_checkpoint_is_numeric_error_at_grm(tmp_path, capsys):
    # a float32 signalling NaN (bytes 01 00 80 7f) in the confidence head
    # loads without a warning and fails where a quiet NaN does
    grm = GlobalRestorer(channels=1, hidden=4, seed=0)
    grm.params["conf.w"][0] = 1234.5
    ckpt = tmp_path / "snan.psck"
    save_params(ckpt, grm.params)
    raw, mark = ckpt.read_bytes(), np.float32(1234.5).tobytes()
    assert raw.count(mark) == 1
    ckpt.write_bytes(raw.replace(mark, bytes.fromhex("0100807f")))
    lr = tmp_path / "lr.psg"
    save_grid(lr, np.zeros((1, 16, 16), np.float32))
    rc = cli.main(["sr", "--input", str(lr), "--output", str(tmp_path / "out.psg"),
                   "--grm", str(ckpt)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "stage 'grm' failed" in err and "confidence map is not finite" in err


def test_grm_checkpoint_of_other_channel_count_exits_3_at_grm(tmp_path, capsys):
    ckpt = tmp_path / "grm.psck"
    save_params(ckpt, GlobalRestorer(channels=1, hidden=4, seed=0).params)
    lr = tmp_path / "lr.psg"
    save_grid(lr, np.zeros((3, 16, 16), np.float32))
    out = tmp_path / "out.psg"
    rc = cli.main(["sr", "--input", str(lr), "--output", str(out), "--grm", str(ckpt)])
    assert rc == 3
    assert "stage 'grm' failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("V, flags, code", [(16, ["--topk", "9"], 2),
                                            (8, ["--patch-size", "16"], 3)])
def test_sr_with_an_unfit_memory_fails_at_retrieve(tmp_path, capsys, V, flags, code):
    # a --topk above the memory's 4 entries is a config error; patches of
    # another size than the memory's cannot be queried
    rng = np.random.Generator(np.random.PCG64(8))
    source = list(rng.standard_normal((4, 1, V, V)).astype(np.float32))
    mem = tmp_path / "m.rtm"
    save_memory(build_memory(source, TextureExtractor((1, V, V)), 4), mem)
    lr = tmp_path / "lr.psg"
    save_grid(lr, rng.standard_normal((1, 16, 16)).astype(np.float32))
    out = tmp_path / "out.psg"
    rc = cli.main(["sr", "--input", str(lr), "--output", str(out),
                   "--rtm", str(mem), *flags])
    assert rc == code
    assert "stage 'retrieve' failed" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_dit_output_is_numeric_error_at_pgs(tmp_path, capsys):
    # a NaN output bias makes every sampled patch NaN; without the check the
    # run exits 0 and writes a non-finite grid
    dit = PatchDiT(channels=1, patch=8, width=8, depth=1, seed=0)
    dit.params["out.b"][:] = np.nan
    ckpt = tmp_path / "nan.psck"
    save_params(ckpt, dit.params)
    lr = tmp_path / "lr.psg"
    save_grid(lr, np.random.default_rng(0).standard_normal((1, 8, 8)).astype(np.float32))
    out = tmp_path / "out.psg"
    rc = cli.main(["sr", "--input", str(lr), "--output", str(out),
                   "--dit", str(ckpt), "--patch-size", "8", "--overlap", "2",
                   "--steps", "2,3,4"])
    assert rc == 4
    assert "stage 'pgs' failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--out", "scene", "--channels", "0"],
    ["train-dit", "--out", "dit.psck", "--train-steps", "-1"],
    ["rtm", "build", "--src", "grids", "--out", "mem.rtm", "--size", "0"],
    ["bench", "--repeats", "two"],
    ["gen-data", "--out", "scene", "--size", "0x0"],
    ["gen-data", "--out", "scene", "--size=16x0"],
    ["gen-data", "--out", "scene", "--size=-16x16"],
    ["gen-data", "--out", "scene", "--size", "abc"],
    ["bench", "--size", "0x0"],
    ["bench", "--size=16x0"],
    ["bench", "--size=-16x16"],
    ["bench", "--size", "abc"],
    ["bench", "--size", "16"],
])
def test_count_flags_must_be_positive_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["gen-data", "--out", "scene"], ["bench"]])
@pytest.mark.parametrize("frac", ["nan", "-1", "2.5", "abc", "inf"])
def test_texture_frac_must_be_a_fraction_at_parse_time(command, frac, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--texture-frac", frac])
    assert exc.value.code == 2
    assert "error: argument --texture-frac" in capsys.readouterr().err


def test_texture_frac_takes_both_ends():
    assert cli._fraction("0") == 0.0 and cli._fraction("1") == 1.0


def test_cli_overrides_reach_pipeline(tmp_path, capsys):
    rc = cli.main(["bench", "--size", "32x32", "--seed", "5",
                   "--gamma1", "0.99", "--gamma2", "0.98",
                   "--tau", "300,600,900", "--steps", "4,7,10"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nfe_unified" in text


@pytest.mark.parametrize("argv", [["rtm"], []])
def test_missing_subcommand_exits(argv):
    with pytest.raises(SystemExit):
        cli.main(argv)
