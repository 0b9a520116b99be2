#!/usr/bin/env python3
"""Perf-regression ratchet over BENCH_SWEEP.json speedup ratios.

CI runs ``python -m repro bench-sweep`` and then this checker, which
fails the build when a recorded speedup ratio falls below its floor.
Ratios compare two legs of the *same* run on the *same* machine, so the
check is robust to absolute runner speed (hosted CI machines vary a lot)
while still catching a real regression: if the flattened hot path stops
being meaningfully faster than the ``hot_path=False`` reference model,
someone pessimised the production simulator loop.

Current floors:

* ``hotpath_vs_serial >= 2.0`` — the warm-cache scalar hot path must
  stay at least 2x faster than the reference timing model (the measured
  ratio at introduction was well above 4x, so this trips on regression,
  not noise).
* ``batched_vs_hotpath >= 1.3`` — the production batched replay
  (flat op arrays + recorded hierarchy-outcome reuse across a sweep's
  schemes) must stay at least 1.3x faster than the scalar hot path
  (measured ~1.45x at introduction).
* ``shared_vs_record >= 1.15`` — a warm fleet member reading every trace
  and recording from the on-disk outcome store (the ``shared-outcomes``
  leg) must stay at least 1.15x faster than a cold member that
  generates, records, and writes the store (``shared-record``).

Current ceilings:

* ``metrics_overhead <= 1.05`` — running the sweep with a real
  in-memory metrics registry (the ``hotpath-metrics`` leg) must cost at
  most 5% over the bare warm hot path: the instrumented runner stays
  effectively free, and the NULL_METRICS default stays exactly free.

Usage::

    python tools/check_bench_ratio.py [BENCH_SWEEP.json]
"""

from __future__ import annotations

import json
import sys

#: speedup-key -> minimum acceptable ratio.
FLOORS = {
    "hotpath_vs_serial": 2.0,
    "batched_vs_hotpath": 1.3,
    "shared_vs_record": 1.15,
}

#: speedup-key -> maximum acceptable ratio (overhead caps).
CEILINGS = {
    "metrics_overhead": 1.05,
}


def check(path: str) -> int:
    with open(path) as fh:
        payload = json.load(fh)
    speedup = payload.get("speedup")
    if not isinstance(speedup, dict):
        print(f"ERROR: {path} has no 'speedup' block", file=sys.stderr)
        return 2
    failures = 0
    for key, floor in FLOORS.items():
        ratio = speedup.get(key)
        if not isinstance(ratio, (int, float)):
            print(f"ERROR: speedup ratio {key!r} missing from {path}", file=sys.stderr)
            failures += 1
            continue
        status = "ok" if ratio >= floor else "FAIL"
        print(f"{key}: {ratio}x (floor {floor}x) {status}")
        if ratio < floor:
            failures += 1
    for key, ceiling in CEILINGS.items():
        ratio = speedup.get(key)
        if not isinstance(ratio, (int, float)):
            print(f"ERROR: speedup ratio {key!r} missing from {path}", file=sys.stderr)
            failures += 1
            continue
        status = "ok" if ratio <= ceiling else "FAIL"
        print(f"{key}: {ratio}x (ceiling {ceiling}x) {status}")
        if ratio > ceiling:
            failures += 1
    if failures:
        print(
            f"ERROR: {failures} speedup floor(s) violated — the production "
            "hot path regressed relative to the reference model",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(check(sys.argv[1] if len(sys.argv) > 1 else "BENCH_SWEEP.json"))
