"""Every function the benchmark's tracer wraps still exists in the package,
and is called on the calling thread only.

perfbench/spans.py reports a target it cannot find as "missing" and runs on,
so a rename would otherwise show only as a lost per-layer metric in a traced
benchmark run.  The file is parsed, not imported or changed.
"""
import ast
import functools
import importlib
import sys
import threading
from pathlib import Path

from conftest import on_workers

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


def test_traced_calls_stay_on_the_calling_thread(monkeypatch):
    # the tracer keeps one span stack, so a target called on a pool thread
    # would close its spans out of order: a 2-worker PatchDiT call with
    # mixed prompts and a 256x256 GRM forward must make every traced call
    # on the calling thread, while their untraced helpers use the pool
    import numpy as np

    from patchscaler import models
    from patchscaler.rtm import RetrievalResult

    seen = {}

    def spy(fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return traced

    namespaces = [m for n, m in sys.modules.items()
                  if n == "patchscaler" or n.startswith("patchscaler.")]
    for modname, attr, span in _targets():
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        fn = getattr(owner, leaf)
        if path:
            monkeypatch.setattr(owner, leaf, spy(fn, span))
            continue
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is fn:
                    monkeypatch.setattr(ns, key, spy(fn, span))
    for helper in ("_attn_patches", "_conv_super_band"):
        monkeypatch.setattr(models, helper, spy(getattr(models, helper), helper))

    rng = np.random.Generator(np.random.PCG64(5))
    dit = models.PatchDiT(channels=1, patch=16, width=16, depth=2, heads=4, seed=0)
    prompt = RetrievalResult(indices=np.arange(3), similarities=np.ones(3, np.float32),
                             priors=rng.standard_normal((3, 1, 16, 16)).astype(np.float32))
    x = rng.standard_normal((12, 1, 16, 16)).astype(np.float32)
    with on_workers(2):
        dit(x, 500, [prompt, None, None] * 4)
        models.GlobalRestorer(channels=1, hidden=16, seed=0).forward(
            rng.standard_normal((1, 256, 256)))
    caller = {threading.get_ident()}
    for span in ("models.dit_attn", "models.dit_prompt_encode", "models.grm_conv"):
        assert seen.get(span) == caller, span
    assert all(idents == caller for name, idents in seen.items()
               if not name.startswith("_")), seen
    # the helpers did run on the pool
    assert seen["_attn_patches"] - caller and seen["_conv_super_band"] - caller
