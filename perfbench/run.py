"""Host-throughput benchmark of the SuperMem simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig13 --seed 1 --seconds 20 --trace 0

Workloads are defined in ``perfbench/grid.py``. One run repeats passes
over the workload's point grid until ``--seconds`` have elapsed (and at
least three passes). Each pass starts from a cold trace cache, sets up
(builds the configs, generates and decodes every trace), then simulates
every point in this one process. A point's host time is its median over
the passes.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Host times are scaled to a nominal host by a reference kernel that runs
between points (``perfbench/hostspeed.py``); the unscaled throughput and
the measured host speed are printed beside the metrics.

* ``sim_ops_per_s``: trace ops (warmup plus measured) stepped, summed over
  every point of the grid, per host second summed over the points;
* ``point_ms_p50`` / ``point_ms_tail``: host time per simulated point; the
  tail is the highest percentile with at least ten points beyond it, and
  the percentile and sample count are printed beside it;
* ``setup_s``: time to import ``repro`` (median of this process's import
  and of fresh interpreters') plus the median pass set-up;
* ``peak_rss_mb``: the process's peak resident memory, read once at exit.

``--trace 1`` alternates an untraced and a traced pass and reports the
per-layer metrics of ``perfbench/report.py``: host time per simulator
layer from shims installed around each layer's entry points, and exact
simulated counts. It fails unless the layer self times add up to the
traced wall within 10% and every simulated count and result digest of the
traced pass equals the untraced one.

Every run checks every point: ``validate_result`` with the scheme's flags,
and the result digest against ``perfbench/golden.json`` at the default
seed, against the first pass at any other seed. A point that raises or
fails a check counts in ``failed`` (so ``failed / attempted`` is the
failed fraction). The model is unvalidated against hardware: the
repository holds no measured reference results, so the benchmark reports
no accuracy error, only the invariants and the committed digests.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when the run is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_PATH = os.path.join(ROOT, "perfbench", "golden.json")
#: Passes made even when ``--seconds`` has run out: an odd count, so every
#: per-point median is one measured value.
MIN_PASSES = 3
#: Timed imports of the simulator behind ``setup_s``: this process's own
#: plus fresh interpreters', since one sample is at the mercy of the host.
IMPORT_SAMPLES = 5
#: Largest accepted gap between the traced wall and the layer self times.
SELF_SUM_TOLERANCE = 0.10


def _bootstrap() -> None:
    """Put the checkout's ``src`` and the benchmark package on the path."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator sources under {src}")
    sys.path[:0] = [src, ROOT]


def import_seconds(first: float) -> float:
    """Median time to import the simulator and the benchmark modules."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; t = time.perf_counter(); "
        "import perfbench.grid, perfbench.report; print(time.perf_counter() - t)"
    )
    samples = [first]
    for _ in range(IMPORT_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, "-c", code, os.path.join(ROOT, "src"), ROOT],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        samples.append(float(proc.stdout))
    return statistics.median(samples)


def load_golden(workload: str):
    """Committed per-point ``{label: digest}`` at the default seed."""
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)[workload]


def check_golden(prepared, done, golden) -> None:
    from perfbench import grid

    labels = [grid.point_label(i, spec) for i, spec in enumerate(prepared.specs)]
    if labels != list(golden):
        raise SystemExit("perfbench: golden.json does not describe this grid")
    grid.compare_digests(
        done.digests, list(golden.values()), done.failures, grid.FAIL_GOLDEN
    )


def _warn_uncovered(done) -> None:
    if done.generated_in_timed:
        print(
            f"perfbench: warning: {done.generated_in_timed} traces were "
            "generated inside the timed phase (set-up did not cover them)",
            file=sys.stderr,
        )


def run_untraced(workload, seed, seconds, import_s, golden):
    from perfbench import grid, report
    from perfbench.hostspeed import HostSpeed

    passes, setups = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        prepared = grid.setup(workload, seed)
        done = grid.timed_pass(workload, prepared, speed=HostSpeed())
        _warn_uncovered(done)
        if golden is not None:
            check_golden(prepared, done, golden)
        elif passes:
            grid.compare_digests(
                done.digests, passes[0][1].digests, done.failures, grid.FAIL_UNSTABLE
            )
        passes.append((prepared, done))
        # Set-up ran just before the pass, so the pass's speed scales it.
        setups.append(prepared.seconds * done.host_speed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Host times are scaled to the nominal host (perfbench/hostspeed.py).
    # Each point's time is then its median over the passes: a burst of
    # host contention slows a few points of one pass, and a per-point
    # median drops it where a per-pass median would keep it.
    scaled = [
        [t * done.host_speed for t in done.point_seconds] for _, done in passes
    ]
    point_s = [statistics.median(times) for times in zip(*scaled)]
    speed = statistics.median(done.host_speed for _, done in passes)
    ops = passes[0][0].ops
    tail_pct = report.tail_percentile(len(point_s))
    values = {
        "sim_ops_per_s": ops / sum(point_s),
        "point_ms_p50": 1000.0 * statistics.median(point_s),
        "point_ms_tail": 1000.0 * report.percentile(point_s, tail_pct),
        "setup_s": import_s * speed + statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    raw_ops_per_s = statistics.median(
        ops / sum(done.point_seconds) for _, done in passes
    )
    per_point = f"{len(point_s)} points, each the median of {len(passes)} passes"
    notes = {
        "sim_ops_per_s": (
            f"{ops} ops over {per_point}; unscaled {raw_ops_per_s:.0f} 1/s "
            f"at host speed {speed:.3f}"
        ),
        "point_ms_p50": per_point,
        "point_ms_tail": (
            f"p{tail_pct} of {per_point}; "
            f"{report.beyond(len(point_s), tail_pct):.2f} points beyond"
        ),
        "setup_s": (
            f"import {import_s:.4f} s (median of {IMPORT_SAMPLES}) + median "
            f"of {len(setups)} set-ups, scaled"
        ),
    }
    failures = [f for _, done in passes for f in done.failures]
    return values, notes, failures


def run_traced(workload, seed, seconds, golden):
    from perfbench import grid, layers, report

    samples, failures = [], []
    correct = True
    start = perf_counter()
    while not samples or perf_counter() - start < seconds:
        prepared = grid.setup(workload, seed)
        plain = grid.timed_pass(workload, prepared)
        _warn_uncovered(plain)

        setup_tracer = layers.LayerTracer()
        setup_tracer.install(layers.setup_targets())
        try:
            traced_setup = grid.setup(workload, seed)
        finally:
            setup_tracer.remove()
        tracer = layers.LayerTracer()
        tracer.install(layers.timed_targets())
        try:
            traced = grid.timed_pass(workload, traced_setup, tracer)
        finally:
            tracer.remove()

        if golden is not None:
            check_golden(prepared, plain, golden)
            check_golden(traced_setup, traced, golden)
        grid.compare_digests(
            traced.digests, plain.digests, traced.failures, grid.FAIL_UNSTABLE
        )
        failures += plain.failures + traced.failures

        plain_totals = report.sim_totals(plain.results)
        same = plain_totals == report.sim_totals(traced.results)
        if not same or plain.outcomes != traced.outcomes:
            print(
                "perfbench: simulated counts differ between the traced and "
                "untraced runs",
                file=sys.stderr,
            )
            correct = False
        values = report.layer_metrics(
            tracer, setup_tracer, traced.seconds, plain.seconds
        )
        gap = abs(values["trace.self_sum_frac"] - 1.0)
        if gap > SELF_SUM_TOLERANCE:
            print(
                f"perfbench: layer self times miss the traced wall by "
                f"{100 * gap:.1f}%",
                file=sys.stderr,
            )
            correct = False
        values.update(
            report.count_metrics(
                plain_totals, plain.outcomes, prepared.ops, len(prepared.specs)
            )
        )
        samples.append(values)
    values = report.median_of(samples)
    notes = {"trace.overhead": f"median of {len(samples)} traced/untraced pairs"}
    return values, notes, failures, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    _bootstrap()
    from perfbench import grid, report

    import_s = perf_counter() - t0
    if args.workload not in grid.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; choose from {sorted(grid.WORKLOADS)}"
        )
    workload = grid.WORKLOADS[args.workload]
    golden = load_golden(workload.name) if args.seed == grid.DEFAULT_SEED else None

    if args.trace:
        catalogue = report.PER_LAYER
        values, notes, failures, correct = run_traced(
            workload, args.seed, args.seconds, golden
        )
    else:
        catalogue, correct = report.END_TO_END, True
        values, notes, failures = run_untraced(
            workload, args.seed, args.seconds, import_seconds(import_s), golden
        )
    failed = sum(1 for f in failures if f is not None)
    correct = correct and failed == 0
    print(f"# perfbench {workload.name} seed={args.seed} trace={args.trace}")
    for name, unit in catalogue:
        print(report.describe(name, values[name], unit, notes.get(name)))
    print(
        report.describe(
            "failed_frac",
            failed / len(failures),
            "ratio",
            f"{failed} of {len(failures)} points",
        )
    )
    for code in sorted({f for f in failures if f is not None}):
        print(f"perfbench: {failures.count(code)} points {code}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(failures),
                "failed": failed,
                "metrics": report.format_metrics(values, catalogue),
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
