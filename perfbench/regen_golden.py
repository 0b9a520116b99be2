"""Rewrite ``perfbench/golden.json``: per-point result digests of every
workload at the default seed.

Regenerate only for an intentional change of the simulated model, from
the root of a checkout::

    python3 perfbench/regen_golden.py
"""

from __future__ import annotations

import json
import os
import sys

sys.path[:0] = [
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), p)
    for p in ("src", "")
]

from perfbench import grid  # noqa: E402
from perfbench.run import GOLDEN_PATH  # noqa: E402


def main() -> int:
    golden = {}
    for name, workload in grid.WORKLOADS.items():
        prepared = grid.setup(workload, grid.DEFAULT_SEED)
        done = grid.timed_pass(workload, prepared)
        bad = [i for i, f in enumerate(done.failures) if f is not None]
        if bad:
            print(f"{name}: points {bad} failed; golden not written", file=sys.stderr)
            return 1
        golden[name] = {
            grid.point_label(i, spec): digest
            for i, (spec, digest) in enumerate(zip(prepared.specs, done.digests))
        }
        print(f"{name}: {len(done.digests)} points")
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
