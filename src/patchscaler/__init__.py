"""Patch-adaptive diffusion super-resolution with grouped sampling.

Desk-scale pipeline: a coarse restorer emits a confidence map, patches are
grouped by quantified difficulty, each group gets its own truncated-forward
intermediate step and sampling budget, and a reference texture memory
supplies retrieval-based conditioning for the patch denoiser.
"""

from .confidence import GroupLabel, Thresholds
from .pgs import PgsReport, run_pgs
from .pipeline import PipelineConfig, make_scene, superresolve
from .schedule import NoiseSchedule, build_linear_schedule

__all__ = [
    "GroupLabel", "Thresholds", "PgsReport", "run_pgs",
    "PipelineConfig", "make_scene",
    "superresolve", "NoiseSchedule", "build_linear_schedule",
]

__version__ = "0.1.0"
