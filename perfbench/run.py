"""Run one benchmark workload in this process and print its metrics.

    python3 perfbench/run.py --workload oracle-512 --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.  The exit code is 0 only when every output check
passed.  See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads():
    """One BLAS thread, whatever the caller's environment; before numpy loads.

    A second thread made DiT images about 2% and oracle-512 images about 6%
    faster on the 2-core VM named in README.md, but it busy-waits on the
    other core, so the run's speed then also depends on everything else
    that core runs.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def keep_freed_memory():
    """Let glibc malloc reuse freed memory instead of returning it to the kernel.

    An oracle-512 image allocates about 0.5 GB of short-lived arrays.  With
    the default allocator every one of them is mapped afresh and faulted in,
    which on a shared VM cost 0.1-0.6 s of kernel time per image, varying
    with the machine's memory state rather than with the program.  Peak RSS
    still counts every temporary.
    """
    try:
        libc = ctypes.CDLL(None)
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False  # not glibc: leave the allocator alone
    m_trim_threshold, m_mmap_max = -1, -4
    return bool(mallopt(m_mmap_max, 0)) and bool(mallopt(m_trim_threshold, 2**31 - 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    pin_blas_threads()
    keep_freed_memory()
    if not (SRC / "patchscaler").is_dir():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import harness
    except ImportError as e:
        print(f"cannot import the program from {SRC}: {e}", file=sys.stderr)
        return 2
    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
