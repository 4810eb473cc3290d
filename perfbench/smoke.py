"""Smoke tests of the benchmark itself, at sizes that run in seconds.

    python3 -m pytest -q perfbench/smoke.py
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402

TINY = {
    "oracle": harness.Workload("tiny-oracle", 32, 0.2, "oracle", scenes=(101,)),
    "rtm": harness.Workload("tiny-rtm", 32, 0.5, "dit", scenes=(201,), memory=4,
                            memory_scenes=(301, 302)),
}
PARTS = ("pipeline.self_ms", "models.grm_ms", "tiling.decompose_ms",
         "confidence.qmap_ms", "rtm.retrieve_ms", "pgs.self_ms",
         "models.denoiser_ms", "tiling.recompose_ms", "colornorm.ms")


@pytest.fixture(autouse=True)
def short_warmup_and_setups(monkeypatch):
    monkeypatch.setattr(harness, "WARMUP_S", 0.01)
    monkeypatch.setattr(harness, "SETUP_BUDGET_S", 0.01)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    return {"dit_max_abs_tol": 1e-3,
            "workloads": {w.name: harness.record_golden(w, work / w.name)
                          for w in TINY.values()}}


@pytest.fixture
def tiny_main(golden, tmp_path, monkeypatch):
    """harness.main over the tiny workloads, writing under tmp_path."""
    for w in TINY.values():
        monkeypatch.setitem(harness.WORKLOADS, w.name, w)
    monkeypatch.setattr(harness, "HERE", tmp_path)

    def run(name, trace, gold=golden):
        monkeypatch.setattr(harness, "load_golden", lambda: gold)
        return harness.main(name, seed=1, seconds=0.01, trace=trace)
    return run


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_printed(tiny_main, capsys, trace):
    assert tiny_main("tiny-rtm", trace) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    for name in wanted:
        assert isinstance(result["metrics"][name]["value"], float), name
        assert any(line.split()[:1] == [name] for line in lines), name


@pytest.mark.parametrize("kind", ["oracle", "rtm"])
def test_corrupted_output_trips_golden_check(golden, tmp_path, kind):
    w = TINY[kind]
    gold = golden["workloads"][w.name][0]
    inputs = harness.make_inputs(w, tmp_path)
    prog = harness.set_up(w, inputs, tmp_path)
    sr, report, _ = harness.process(prog, inputs.lr_paths[0], tmp_path / "sr.psg")
    assert harness.check_output(w, gold, sr, report, 1e-3) == []
    bad = sr.copy()
    # the oracle must match bit for bit; the DiT within the recorded tolerance
    bad[0, 5, 7] = np.nextafter(bad[0, 5, 7], np.float32(np.inf)) if kind == "oracle" \
        else bad[0, 5, 7] + 2e-3
    assert harness.check_output(w, gold, bad, report, 1e-3)


def test_failed_check_exits_nonzero(tiny_main, golden, capsys):
    gold = copy.deepcopy(golden)
    gold["workloads"]["tiny-oracle"][0]["sha256"] = "0" * 64
    assert tiny_main("tiny-oracle", False, gold) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_layer_times_account_for_superresolve(golden, tmp_path):
    result = harness.bench(TINY["rtm"], 1, 0.01, True, golden, tmp_path)
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert sum(m[p] for p in PARTS) == pytest.approx(m["pipeline.superresolve_ms"], rel=1e-9)
    dit = ("models.dit_self_attn_ms", "models.dit_cross_attn_ms",
           "models.dit_prompt_encode_ms", "models.dit_ff_other_ms")
    assert sum(m[p] for p in dit) == pytest.approx(m["models.denoiser_ms"], rel=1e-9)
    assert 0 < m["models.grm_conv_ms"] < m["models.grm_ms"]
    assert 0 < m["rtm.extract_ms"] < m["rtm.retrieve_ms"]
    assert m["pgs.patches_per_call"] == 1.0
    assert m["pgs.denoiser_calls"] == sum(m[f"pgs.nfe_{g}"] for g in ("simple", "medium", "hard"))
    trace = json.loads((tmp_path / "spans-seed1.json").read_text())
    names = {s["name"] for s in trace["spans"]}
    assert {"bench.image", "pipeline.superresolve", "models.dit_self_attn"} <= names
    assert all({"name", "image", "parent", "start_ms", "end_ms"} <= set(s) for s in trace["spans"])


def test_removed_name_is_reported_missing(golden, tmp_path, monkeypatch):
    targets = [t for t in spans.TARGETS if t[2] != "models.grm_conv"]
    targets.append(("patchscaler.models", "_conv3x3_removed", "models.grm_conv"))
    monkeypatch.setattr(spans, "TARGETS", tuple(targets))
    result = harness.bench(TINY["oracle"], 1, 0.01, True, golden, tmp_path)
    assert result["correct"]
    assert result["metrics"]["models.grm_conv_ms"] == {"value": None, "unit": "ms",
                                                       "missing": True}
    assert result["metrics"]["models.grm_ms"]["value"] > 0


def test_self_time_subtracts_children_and_folds_leaves():
    tracer = spans.Tracer()
    tracer.image = "img-0"
    outer = tracer.open("outer")
    for _ in range(3):
        tracer.close(tracer.open("leaf"))
    tracer.close(outer)
    assert [(s.name, s.calls) for s in tracer.spans] == [("leaf", 3), ("outer", 1)]
    leaf, whole = tracer.spans
    totals = spans.summarize(tracer.spans, lambda im: True)
    assert totals["outer"].self_ns == whole.total_ns - leaf.total_ns
    assert totals["leaf"].self_ns == leaf.total_ns


def test_tail_has_ten_samples_beyond_it():
    assert harness.tail([float(i) for i in range(10)]) == (4.5, 50.0)
    value, pct = harness.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)
