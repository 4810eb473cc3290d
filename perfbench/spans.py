"""Spans recorded from outside the program, around calls into its modules.

A traced run installs wrappers that rebind functions in the ``patchscaler.*``
namespaces, and wraps the grm, denoiser and extractor callables it hands to
the pipeline in timing proxies.  Nothing under ``src/`` knows about tracing,
and an untraced run installs nothing.
"""
from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass

# (defining module, attribute, span name).  A function is rebound in every
# patchscaler namespace that holds it, so `from .pgs import run_pgs` in the
# pipeline is traced as well as `pgs.run_pgs`.  "Class.method" rebinds the
# method on the class.  A target a later refactor removes is reported as
# missing instead of failing the run.
TARGETS = (
    ("patchscaler.gridio", "load_grid", "gridio.load_grid"),
    ("patchscaler.gridio", "save_grid", "gridio.save_grid"),
    ("patchscaler.pipeline", "superresolve", "pipeline.superresolve"),
    ("patchscaler.tiling", "decompose", "tiling.decompose"),
    ("patchscaler.tiling", "recompose", "tiling.recompose"),
    ("patchscaler.confidence", "build_qmap", "confidence.build_qmap"),
    ("patchscaler.rtm", "retrieve_topk", "rtm.retrieve_topk"),
    ("patchscaler.pgs", "run_pgs", "pgs.run_pgs"),
    ("patchscaler.pgs", "_patch_rng", "pgs.patch_rng"),
    ("patchscaler.schedule", "truncated_forward", "schedule.truncated_forward"),
    ("patchscaler.schedule", "reverse_step", "schedule.reverse_step"),
    ("patchscaler.colornorm", "wavelet_color_normalize", "colornorm.wavelet_color_normalize"),
    ("patchscaler.models", "_conv3x3_forward", "models.grm_conv"),
    ("patchscaler.models", "_attn_forward", "models.dit_attn"),
    ("patchscaler.models", "PatchDiT._encode_prompt", "models.dit_prompt_encode"),
    ("patchscaler.checkpoint", "load_params", "checkpoint.load_params"),
    ("patchscaler.rtm", "build_memory", "rtm.build_memory"),
    ("patchscaler.rtm", "load_memory", "rtm.load_memory"),
)


def _attn_span(args, kwargs) -> str:
    # _attn_forward(q_in, kv_in, p, pre, heads): pre ends in ".sa" or ".ca"
    pre = args[3] if len(args) > 3 else kwargs.get("pre", "")
    if isinstance(pre, str) and pre.endswith(".ca"):
        return "models.dit_cross_attn"
    return "models.dit_self_attn"


# target span -> (namer of each call, the span names it produces)
SPAN_NAMERS = {"models.dit_attn": (_attn_span, ("models.dit_self_attn",
                                                "models.dit_cross_attn"))}


@dataclass
class Span:
    """One call, or all childless calls of one name under one parent."""

    id: int
    name: str
    image: str
    parent: int | None
    start_ns: int
    end_ns: int
    calls: int
    total_ns: int
    errors: int


class _Open:
    __slots__ = ("id", "name", "parent", "start", "leaves")

    def __init__(self, id_, name, parent, start):
        self.id, self.name, self.parent, self.start = id_, name, parent, start
        self.leaves = None  # name -> folded Span of childless calls; None: no child yet


class Tracer:
    """In-memory span recorder; spans are written out when the run ends.

    Childless calls of one name under one parent span are folded into one
    record that keeps the first start, the last end, the call count and the
    summed duration.  A 512x512 oracle image makes about 40k such calls
    (denoiser, reverse step), and folding keeps them to a few records while
    self times stay exact.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.image = "none"
        self.t0 = time.perf_counter_ns()
        self._stack: list[_Open] = []
        self._ids = itertools.count()
        self._undo: list[tuple] = []

    def open(self, name: str) -> _Open:
        parent = None
        if self._stack:
            top = self._stack[-1]
            if top.leaves is None:
                top.leaves = {}
            parent = top.id
        frame = _Open(next(self._ids), name, parent, time.perf_counter_ns())
        self._stack.append(frame)
        return frame

    def close(self, frame: _Open, failed: bool = False):
        end = time.perf_counter_ns()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span '{frame.name}' closed out of order")
        dur = end - frame.start
        folder = self._stack[-1].leaves if self._stack and frame.leaves is None else None
        if folder is not None:
            leaf = folder.get(frame.name)
            if leaf is not None:
                leaf.end_ns = end
                leaf.calls += 1
                leaf.total_ns += dur
                leaf.errors += failed
                return
        span = Span(frame.id, frame.name, self.image, frame.parent, frame.start,
                    end, 1, dur, int(failed))
        self.spans.append(span)
        if folder is not None:
            folder[frame.name] = span

    def call(self, name: str, fn, *args, **kwargs):
        frame = self.open(name)
        failed = True
        try:
            out = fn(*args, **kwargs)
            failed = False
            return out
        finally:
            self.close(frame, failed)

    def wrap(self, fn, name: str):
        namer = SPAN_NAMERS.get(name, (None,))[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            return self.call(span, fn, *args, **kwargs)
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every target; call uninstall() to restore them."""
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "patchscaler" or n.startswith("patchscaler.")]
        for modname, attr, span in TARGETS:
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing += SPAN_NAMERS.get(span, (None, (span,)))[1]
                continue
            traced = self.wrap(fn, span)
            if path:
                self._rebind(owner, leaf, fn, traced)
                continue
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._rebind(ns, key, fn, traced)

    def _rebind(self, owner, key, original, traced):
        self._undo.append((owner, key, original))
        setattr(owner, key, traced)

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- output ------------------------------------------------------------

    def dump(self, path, meta: dict):
        spans = []
        for s in self.spans:
            row = asdict(s)
            row["start_ms"] = (row.pop("start_ns") - self.t0) / 1e6
            row["end_ms"] = (row.pop("end_ns") - self.t0) / 1e6
            row["total_ms"] = row.pop("total_ns") / 1e6
            spans.append(row)
        with open(path, "w") as f:
            json.dump({**meta, "missing": self.missing, "spans": spans}, f)


class Proxy:
    """Timing proxy around a callable the benchmark hands to the pipeline."""

    def __init__(self, tracer: Tracer, name: str, target):
        self._tracer, self._name, self._target = tracer, name, target

    def __call__(self, *args, **kwargs):
        return self._tracer.call(self._name, self._target, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._target, attr)


class DenoiserProxy(Proxy):
    """Also counts patch evaluations: one per (c, V, V) input, B per batch."""

    def __init__(self, tracer: Tracer, target):
        super().__init__(tracer, "models.denoiser", target)
        self.evaluations = 0

    def __call__(self, x_t, *args, **kwargs):
        self.evaluations += x_t.shape[0] if x_t.ndim == 4 else 1
        return super().__call__(x_t, *args, **kwargs)


@dataclass
class Totals:
    inclusive_ns: int = 0
    self_ns: int = 0
    calls: int = 0
    errors: int = 0


def summarize(spans, keep) -> dict[str, Totals]:
    """Per span name totals over spans whose image label passes keep().

    Self time is a span's duration minus the time its child spans cover.
    """
    children: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0) + s.total_ns
    out: dict[str, Totals] = {}
    for s in spans:
        if not keep(s.image):
            continue
        t = out.setdefault(s.name, Totals())
        t.inclusive_ns += s.total_ns
        t.self_ns += s.total_ns - children.get(s.id, 0)
        t.calls += s.calls
        t.errors += s.errors
    return out
