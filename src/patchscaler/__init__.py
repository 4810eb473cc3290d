"""Patch-adaptive diffusion super-resolution with grouped sampling.

Desk-scale pipeline: a coarse restorer emits a confidence map, patches are
grouped by quantified difficulty, each group gets its own truncated-forward
intermediate step and sampling budget, and a reference texture memory
supplies retrieval-based conditioning for the patch denoiser.

The package re-exports nothing; import its submodules.
"""

__version__ = "0.1.0"
