"""Every function the benchmark's tracer wraps still exists in the package.

perfbench/spans.py reports a target it cannot find as "missing" and runs on,
so a rename would otherwise show only as a lost per-layer metric in a traced
benchmark run.  The file is parsed, not imported or changed.
"""
import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS tuple in {SPANS}")


def test_every_trace_target_resolves_to_a_callable():
    targets = _targets()
    assert targets
    missing = []
    for modname, attr, span in targets:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{modname}.{attr} ({span})")
    assert not missing, f"trace targets not found: {missing}"
