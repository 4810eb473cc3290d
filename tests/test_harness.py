"""The benchmark harness runs against the package as the benchmark runs it.

perfbench/harness.py calls into the package by name: ``decompose(...)[0]``
added to a list, ``CFG.schedule()``, ``restore_into``, ``build_memory``,
``extract_query`` and the report's ``total_nfe``, ``ratio``, ``group_nfe``
and ``group_counts``.  These tests import the harness and change nothing
under perfbench/, so an API change that would fail the benchmark fails here.
"""
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import harness  # noqa: E402

# the two tiny workloads of perfbench/smoke.py
TINY = (
    harness.Workload("tiny-oracle", 32, 0.2, "oracle", scenes=(101,)),
    harness.Workload("tiny-rtm", 32, 0.5, "dit", scenes=(201,), memory=4,
                     memory_scenes=(301, 302)),
)


@pytest.fixture(scope="module")
def tiny_golden(tmp_path_factory):
    work = tmp_path_factory.mktemp("golden")
    return {"dit_max_abs_tol": 1e-3,
            "workloads": {w.name: harness.record_golden(w, work / w.name) for w in TINY}}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_tiny_workload_runs_correct_with_every_metric(tiny_golden, tmp_path,
                                                      monkeypatch, w, trace):
    monkeypatch.setattr(harness, "WARMUP_S", 0.01)
    monkeypatch.setattr(harness, "SETUP_BUDGET_S", 0.01)
    result = harness.bench(w, 1, 0.01, trace, tiny_golden, tmp_path)
    assert result["correct"] and result["failed"] == 0, result["problems"]
    units = harness.LAYER_UNITS if trace else harness.E2E_UNITS
    assert list(result["metrics"]) == list(units)
    assert [name for name, m in result["metrics"].items() if m.get("missing")] == []
    if trace:
        assert result["metrics"]["schedule.truncated_forward_ms"]["value"] > 0


def test_oracle_512_scene_matches_its_golden_digest(tmp_path):
    w = dataclasses.replace(harness.WORKLOADS["oracle-512"], scenes=(101,))
    assert harness.checkpoint_digest() == harness.GRM_SHA256
    inputs = harness.make_inputs(w, tmp_path)
    prog = harness.set_up(w, inputs, tmp_path)
    sr, report, _ = harness.process(prog, inputs.lr_paths[0], tmp_path / "sr.psg")
    golden = harness.load_golden()
    gold = next(e for e in golden["workloads"][w.name] if e["scene"] == 101)
    assert harness.check_output(w, gold, sr, report, golden["dit_max_abs_tol"]) == []
