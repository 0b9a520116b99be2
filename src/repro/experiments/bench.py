"""Wall-clock benchmark of the experiment sweep runner.

Times the standard Figure 13 sweep along the repo's perf trajectory and
writes the measurements to a JSON file (``BENCH_SWEEP.json`` by
convention). Legs, in execution order:

``serial-nocache``
    The reference timing model (``hot_path=False`` — the straight-line
    pre-optimisation code paths kept for differential testing) with the
    trace cache disabled: the pre-runner baseline.
``serial``
    The reference model with the trace cache enabled.
``full-fidelity``
    The production hot path at ``fidelity="full"``: payload-tracking
    traces and the byte-level crypto/NVM functional machinery.
``timing-fidelity``
    The production hot path at ``fidelity="timing"`` (the default mode):
    identical simulated results, no functional byte work. This is the
    headline serial leg.
``hotpath``
    The scalar hot path (``batched_replay=False``) with a warm trace
    cache — isolates the per-op simulator loop itself. CI asserts this
    leg is at least 2x faster than the ``serial`` reference leg
    (``tools/check_bench_ratio.py``).
``hotpath-metrics``
    The warm scalar hot path once more with a real in-memory
    :class:`~repro.obs.metrics.MetricsRegistry` installed as the runner
    default — pure instrumentation overhead. CI caps the
    ``metrics_overhead`` ratio at 1.05 (metrics cost under 5%).
``batched-replay``
    The full production configuration (``batched_replay=True``): flat
    array replay plus recorded hierarchy-outcome reuse across the
    schemes of each cell. Recorded outcome streams from earlier legs are
    dropped first, so this leg honestly pays its own one-recording-in-
    six-schemes cost. CI asserts ``batched_vs_hotpath`` >= 1.3
    (``tools/check_bench_ratio.py``).
``shared-record``
    A *cold* fleet member against an (empty) on-disk outcome store
    (:mod:`repro.sim.outcome_store`): process cache cleared, one
    SuperMem point per fig13 cell — the recording owner's share of a
    fleet sweep. Generates every trace, records every hierarchy walk,
    and writes both to the store. The single-scheme subset isolates the
    per-(trace, geometry) work the store deduplicates; in the full
    seven-scheme sweep that work is only 1/7 of the points and the
    ratio would drown in scheme-replay time both members pay alike.
``shared-outcomes``
    The same single-scheme subset, process cache cleared again, store
    warm: a *second* fleet member. Zero trace generations and zero
    outcome recordings — every trace and recording loads from the
    store's binary entries, bit-identically. CI asserts
    ``shared_vs_record`` >= 1.15 (``tools/check_bench_ratio.py``).
``parallel`` / ``resume``
    Process fan-out over the production configuration, then a pure
    journal-resume pass (nothing simulated).

Every full-sweep leg simulates the exact same results — the
golden-digest guarantee — so those legs differ only in wall clock; the
two ``shared-*`` legs run the same single-scheme subset of that grid
(cold store vs warm store, results bit-identical to each other). Each record follows
the schema ``{name, scale, jobs, wall_s, points, runner}`` where
``runner`` is the :meth:`~repro.experiments.runner.RunnerReport.to_dict`
accounting of that leg; the ``speedup`` block reports the headline
ratios.

Run via ``python -m repro bench-sweep``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: The fig13 request sizes exercised by the benchmark sweep.
BENCH_REQUEST_SIZES = (256, 1024, 4096)


def _timed_sweep(
    scale: str,
    request_sizes: Sequence[int],
    jobs: int,
    cache_enabled: bool,
    journal: Optional[str] = None,
    fidelity: str = "timing",
    base_config=None,
    clear_cache: bool = True,
    metrics: bool = False,
    drop_outcomes: bool = False,
) -> Tuple[float, int, Optional[Dict[str, object]]]:
    """One fig13 sweep; returns (wall s, number of points, runner accounting).

    ``metrics=True`` installs a real in-memory
    :class:`~repro.obs.metrics.MetricsRegistry` (no JSONL stream) as the
    runner default for the duration of the sweep — the ``hotpath-metrics``
    leg, measuring pure instrumentation overhead against ``hotpath``.
    ``drop_outcomes=True`` clears recorded hierarchy outcome streams
    (keeping traces/arrays warm) so the ``batched-replay`` leg records
    its own.
    """
    from repro.experiments import fig13, runner
    from repro.obs.metrics import NULL_METRICS, MetricsRegistry
    from repro.sim import trace_cache

    trace_cache.configure(cache_enabled)
    if clear_cache:
        trace_cache.clear()
    if drop_outcomes:
        trace_cache.clear_outcomes()
    if metrics:
        runner.set_default_metrics(MetricsRegistry())
    try:
        started = time.perf_counter()
        points = fig13.run(
            scale,
            request_sizes=tuple(request_sizes),
            jobs=jobs,
            journal=journal,
            fidelity=fidelity,
            base_config=base_config,
        )
        wall = time.perf_counter() - started
    finally:
        trace_cache.configure(True)
        if metrics:
            runner.set_default_metrics(NULL_METRICS)
    report = runner.last_report()
    return wall, len(points), report.to_dict() if report is not None else None


def _reference_config(scale: str):
    """The ``hot_path=False`` base config for the reference-model legs."""
    from repro.experiments.common import experiment_base_config, get_scale

    return dataclasses.replace(
        experiment_base_config(get_scale(scale)), hot_path=False
    )


def _scalar_config(scale: str):
    """The scalar hot path (``batched_replay=False``) for the hotpath legs."""
    from repro.experiments.common import experiment_base_config, get_scale

    return dataclasses.replace(
        experiment_base_config(get_scale(scale)), batched_replay=False
    )


def _store_config(scale: str, store_dir: str):
    """The production config with the on-disk outcome store configured
    (the ``shared-record``/``shared-outcomes`` legs)."""
    from repro.experiments.common import experiment_base_config, get_scale

    return dataclasses.replace(
        experiment_base_config(get_scale(scale)), outcome_store=store_dir
    )


def _timed_store_leg(
    name: str,
    scale: str,
    request_sizes: Sequence[int],
    store_cfg,
) -> Tuple[float, int, Optional[Dict[str, object]]]:
    """One outcome-store leg: the SuperMem point of every fig13 cell.

    Clears the process trace cache first, so the leg pays (cold store)
    or loads (warm store) every trace and recording — exactly the work
    a fresh fleet member does for the cells it records on behalf of the
    fleet. ``store_cfg`` carries ``outcome_store``; the store's state
    (empty vs populated) is what distinguishes the two legs.
    """
    from repro.core.schemes import Scheme
    from repro.experiments import fig13, runner
    from repro.sim import trace_cache

    trace_cache.configure(True)
    trace_cache.clear()
    _, point_specs = fig13.specs(
        scale, request_sizes=tuple(request_sizes), base_config=store_cfg
    )
    subset = [spec for spec in point_specs if spec.scheme is Scheme.SUPERMEM]
    started = time.perf_counter()
    results = runner.run_points(subset, jobs=1, label=name)
    wall = time.perf_counter() - started
    report = runner.last_report()
    return wall, len(results), report.to_dict() if report is not None else None


def _timed_recovery_sweep(scale: str, jobs: int, runs: List[Dict[str, object]]) -> float:
    """Time the fig-recovery sweep and append its record to ``runs``.

    Not part of the speedup ratios (the recovery kernel is a different
    workload from the fig13 timing simulation); recorded so the perf
    trajectory covers the recovery-cost subsystem too.
    """
    from repro.experiments import fig_recovery, runner

    started = time.perf_counter()
    points = fig_recovery.run(scale, jobs=jobs)
    wall = time.perf_counter() - started
    report = runner.last_report()
    runs.append(
        {
            "name": "fig-recovery",
            "scale": scale,
            "jobs": jobs,
            "wall_s": round(wall, 3),
            "points": len(points),
            "runner": report.to_dict() if report is not None else None,
        }
    )
    return wall


def _timed_channels_sweep(scale: str, jobs: int, runs: List[Dict[str, object]]) -> float:
    """Time the fig-channels sweep and append its record to ``runs``.

    Like the fig-recovery leg, not part of the speedup ratios — recorded
    so the perf trajectory covers the channel-sensitivity sweep (and with
    it the SuperMem+BMT integrity-tree write path) too.
    """
    from repro.experiments import fig_channels, runner

    started = time.perf_counter()
    points = fig_channels.run(scale, jobs=jobs)
    wall = time.perf_counter() - started
    report = runner.last_report()
    runs.append(
        {
            "name": "fig-channels",
            "scale": scale,
            "jobs": jobs,
            "wall_s": round(wall, 3),
            "points": len(points),
            "runner": report.to_dict() if report is not None else None,
        }
    )
    return wall


def run_sweep_benchmark(
    scale: str = "smoke",
    jobs: int = 4,
    request_sizes: Sequence[int] = BENCH_REQUEST_SIZES,
    output: Optional[str] = "BENCH_SWEEP.json",
    outcome_store: Optional[str] = None,
) -> Dict[str, object]:
    """Benchmark the fig13 sweep across the legs described in the module
    docstring: reference model (cold/cached), production full/timing
    fidelity, warm hot path, parallel, and journal resume.

    Returns the payload written to ``output`` (pass ``None`` to skip the
    file). Simulated results are identical across the runs — only
    wall-clock differs — so this is purely a harness benchmark. The
    ``resume`` leg replays the journal the parallel leg wrote: zero
    simulation, pure journal-read cost, and its ``runner.resumed`` count
    equals the full point count (the accounting CI asserts on).
    """
    runs: List[Dict[str, object]] = []

    def record(
        name: str,
        n_jobs: int,
        cache_enabled: bool,
        journal: Optional[str] = None,
        fidelity: str = "timing",
        base_config=None,
        clear_cache: bool = True,
        metrics: bool = False,
        drop_outcomes: bool = False,
    ) -> float:
        wall, n_points, runner_accounting = _timed_sweep(
            scale,
            request_sizes,
            n_jobs,
            cache_enabled,
            journal=journal,
            fidelity=fidelity,
            base_config=base_config,
            clear_cache=clear_cache,
            metrics=metrics,
            drop_outcomes=drop_outcomes,
        )
        runs.append(
            {
                "name": name,
                "scale": scale,
                "jobs": n_jobs,
                "wall_s": round(wall, 3),
                "points": n_points,
                "runner": runner_accounting,
            }
        )
        return wall

    reference = _reference_config(scale)
    with tempfile.TemporaryDirectory(prefix="bench-sweep-") as tmp:
        journal = os.path.join(tmp, "sweep-journal.jsonl")
        serial_nocache = record(
            "serial-nocache", 1, False, base_config=reference
        )
        serial = record("serial", 1, True, base_config=reference)
        full_fidelity = record("full-fidelity", 1, True, fidelity="full")
        timing_fidelity = record("timing-fidelity", 1, True)
        # The scalar hot path (batched replay off) with the trace cache
        # warm from the previous leg: the per-op simulator loop alone.
        scalar = _scalar_config(scale)
        hotpath = record(
            "hotpath", 1, True, base_config=scalar, clear_cache=False
        )
        # hotpath again with a live in-memory metrics registry: the
        # instrumentation overhead CI caps at 5% (check_bench_ratio.py).
        hotpath_metrics = record(
            "hotpath-metrics",
            1,
            True,
            base_config=scalar,
            clear_cache=False,
            metrics=True,
        )
        # The production batched replay, paying its own outcome-recording
        # cost (recordings from earlier legs dropped, traces kept warm).
        batched = record(
            "batched-replay", 1, True, clear_cache=False, drop_outcomes=True
        )
        # The cross-process outcome store, on the single-scheme subset
        # (one SuperMem point per cell — the recording owner's share of
        # a fleet sweep): a cold member generates, records, and writes
        # the store...
        store_dir = outcome_store or os.path.join(tmp, "outcome-store")
        store_cfg = _store_config(scale, store_dir)
        shared_record, store_points, store_acct = _timed_store_leg(
            "shared-record", scale, request_sizes, store_cfg
        )
        runs.append(
            {
                "name": "shared-record",
                "scale": scale,
                "jobs": 1,
                "wall_s": round(shared_record, 3),
                "points": store_points,
                "runner": store_acct,
            }
        )
        # ...then a warm second member: process cache cleared again, so
        # every trace and recording must come from the store — zero
        # generations, zero walks, bit-identical results.
        shared_outcomes, store_points, store_acct = _timed_store_leg(
            "shared-outcomes", scale, request_sizes, store_cfg
        )
        runs.append(
            {
                "name": "shared-outcomes",
                "scale": scale,
                "jobs": 1,
                "wall_s": round(shared_outcomes, 3),
                "points": store_points,
                "runner": store_acct,
            }
        )
        parallel = record("parallel", jobs, True, journal=journal)
        resume = record("resume", jobs, True, journal=journal)
        _timed_recovery_sweep(scale, jobs, runs)
        _timed_channels_sweep(scale, jobs, runs)

    payload: Dict[str, object] = {
        "benchmark": "fig13-sweep",
        "runs": runs,
        "speedup": {
            # Trace memoization alone (reference model, cold vs warm
            # generation).
            "trace_cache": round(serial_nocache / serial, 3) if serial else 0.0,
            # The flattened hot path vs the reference model, trace cache
            # warm/enabled on both sides. CI enforces >= 2.0
            # (tools/check_bench_ratio.py).
            "hotpath_vs_serial": round(serial / hotpath, 3) if hotpath else 0.0,
            # Instrumented sweep vs the bare hot path (>1 = overhead).
            # CI enforces <= 1.05 (tools/check_bench_ratio.py CEILINGS).
            "metrics_overhead": (
                round(hotpath_metrics / hotpath, 3) if hotpath else 0.0
            ),
            # Batched array replay + hierarchy outcome reuse vs the
            # scalar hot path, trace cache warm on both sides. CI
            # enforces >= 1.3 (tools/check_bench_ratio.py).
            "batched_vs_hotpath": round(hotpath / batched, 3) if batched else 0.0,
            # A warm fleet member (store hits only) vs a cold one
            # (generate + record + store writes). CI enforces >= 1.15
            # (tools/check_bench_ratio.py).
            "shared_vs_record": (
                round(shared_record / shared_outcomes, 3) if shared_outcomes else 0.0
            ),
            # Timing-only fidelity vs the full functional byte path on
            # the same production simulator.
            "timing_vs_full": (
                round(full_fidelity / timing_fidelity, 3) if timing_fidelity else 0.0
            ),
            # Process fan-out on top of the production serial leg.
            "parallel_vs_serial": (
                round(timing_fidelity / parallel, 3) if parallel else 0.0
            ),
            # Journal resume vs re-simulating (the crash-recovery payoff).
            "resume_vs_parallel": round(parallel / resume, 3) if resume else 0.0,
            # The whole trajectory: pre-runner reference baseline vs the
            # parallel production harness.
            "total": round(serial_nocache / parallel, 3) if parallel else 0.0,
        },
        "host_cpus": os.cpu_count(),
    }
    if output:
        with open(output, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def format_summary(payload: Dict[str, object]) -> str:
    """Human-readable digest of a benchmark payload."""
    lines = []
    for run in payload["runs"]:  # type: ignore[index]
        line = (
            f"{run['name']:>16}: {run['wall_s']:8.3f}s "
            f"(jobs={run['jobs']}, {run['points']} points, scale={run['scale']})"
        )
        accounting = run.get("runner")
        if accounting:
            extras = []
            for key in ("resumed", "retries", "timeouts", "serial_fallbacks"):
                if accounting.get(key):
                    extras.append(f"{key}={accounting[key]}")
            if accounting.get("failures"):
                extras.append(f"failures={len(accounting['failures'])}")
            if extras:
                line += " [" + ", ".join(extras) + "]"
        lines.append(line)
    speedup = payload["speedup"]  # type: ignore[index]
    lines.append(
        f"{'speedup':>16}: trace-cache {speedup['trace_cache']}x, "
        f"hotpath {speedup['hotpath_vs_serial']}x, "
        f"batched {speedup.get('batched_vs_hotpath', 0.0)}x, "
        f"shared-store {speedup.get('shared_vs_record', 0.0)}x, "
        f"metrics-overhead {speedup.get('metrics_overhead', 0.0)}x, "
        f"timing-vs-full {speedup['timing_vs_full']}x, "
        f"parallel {speedup['parallel_vs_serial']}x, "
        f"resume {speedup['resume_vs_parallel']}x, "
        f"total {speedup['total']}x "
        f"({payload['host_cpus']} host CPUs)"
    )
    return "\n".join(lines)
