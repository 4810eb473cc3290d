"""Record the golden outputs every benchmark run is checked against.

    python3 perfbench/record_golden.py

Writes golden.json (SR digests, NFE ledgers, the tolerance for the DiT
workloads and the environment they were recorded in) and golden_dit.npz
(the DiT workloads' SR grids).  Re-record only when a change is meant to
alter outputs, and say so in the change.
"""
from __future__ import annotations

import json
import sys

from run import SRC, keep_freed_memory, pin_blas_threads

# a float32 inference path may differ from today's float64 DiT by at most this
DIT_MAX_ABS_TOL = 1e-3


def main():
    pin_blas_threads()
    keep_freed_memory()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import harness

    golden = {"env": harness.environment(), "dit_max_abs_tol": DIT_MAX_ABS_TOL,
              "workloads": {}}
    arrays = {}
    for name, w in harness.WORKLOADS.items():
        entries = harness.record_golden(w, harness.HERE / "out" / name)
        for e in entries:
            if "sr" in e:
                arrays[f"{name}_{e['scene']}"] = e.pop("sr")
        golden["workloads"][name] = entries
        print(name, [e["group_nfe"] for e in entries])
    harness.GOLDEN_JSON.write_text(json.dumps(golden, indent=1) + "\n")
    np.savez_compressed(harness.GOLDEN_NPZ, **arrays)


if __name__ == "__main__":
    main()
