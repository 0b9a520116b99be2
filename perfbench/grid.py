"""The benchmark's workloads: point grids, their set-up, and one pass.

A *pass* simulates every point of a workload's grid once, starting from a
cold process-level trace cache: set-up generates and decodes every trace
the grid needs, then the timed phase simulates the points. The outcome
store is off and sweep metrics go to ``NULL_METRICS``, so a pass measures
the simulator and the runner, not disk or telemetry.

Workloads (why each is in the benchmark is also recorded in
``BENCHMARK.json``):

``fig13``
    The Figure 13 grid at smoke scale: 5 workloads x 3 request sizes x 7
    schemes = 105 points at timing fidelity through the experiment runner.
    The first scheme of each cell records the hierarchy walk and the other
    six replay it, so the batched-replay loop and the fast persist chain
    do most of the work.
``fig14-8core``
    Figure 14 at 8 programs: 5 workloads x 7 schemes through the runner.
    The multi-programmed kernel steps every op through the scalar
    ``CoreEngine.step`` (a hierarchy walk per op, shared L3, every bank
    contended), so the drain scheduler has its largest share here and
    batched replay is bypassed entirely.
``mixed-full``
    The YCSB-like ``mixed`` workload (zipfian reads beside transactional
    writes) at full fidelity under Unsec, SuperMem and SuperMem+BMT over
    several seeds, called through ``simulate_workload``. It drives the
    read side (counter-cache read hits, controller reads, MAC and tree
    verification) and the functional crypto and NVM byte work that the
    timing-fidelity grids skip.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from perfbench.hostspeed import HostSpeed
from repro.common.config import CounterCacheMode
from repro.core.schemes import EVALUATED_SCHEMES, Scheme, scheme_config
from repro.experiments import fig13
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.faults import FaultPlan
from repro.experiments.runner import PointSpec, RunnerPolicy, run_points_report
from repro.obs.metrics import NULL_METRICS
from repro.sim import simulator as sim_simulator
from repro.sim import trace_cache
from repro.sim.metrics import SimResult
from repro.sim.validation import ValidationError, validate_result
from repro.workloads.base import WORKLOAD_NAMES

#: The seed the committed golden digests were taken at.
DEFAULT_SEED = 1

SCALE = get_scale("smoke")

MIXED_SCHEMES = (Scheme.UNSEC, Scheme.SUPERMEM, Scheme.SUPERMEM_BMT)
#: Consecutive seeds per mixed-full pass (``seed .. seed + 11``).
MIXED_SEEDS = 12
MIXED_OPS = 300

#: Point status strings other than ``None`` (= the point is correct).
FAIL_RAISED = "raised"
FAIL_INVALID = "invalid"
FAIL_GOLDEN = "golden-mismatch"
FAIL_UNSTABLE = "digest-differs-between-passes"


def base_config():
    """The smoke-scale Table 2 system, outcome store explicitly off."""
    return dataclasses.replace(experiment_base_config(SCALE), outcome_store=None)


def _fig13_specs(seed: int) -> List[PointSpec]:
    _, specs = fig13.specs(SCALE, fidelity="timing", base_config=base_config())
    return [dataclasses.replace(spec, seed=seed) for spec in specs]


def _fig14_specs(seed: int) -> List[PointSpec]:
    base = base_config()
    return [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=SCALE.n_ops_multicore,
            request_size=1024,
            footprint=None,
            base_config=base,
            seed=seed,
            fidelity="timing",
            n_programs=8,
        )
        for workload in WORKLOAD_NAMES
        for scheme in EVALUATED_SCHEMES
    ]


def _mixed_specs(seed: int) -> List[PointSpec]:
    base = base_config()
    return [
        PointSpec(
            workload="mixed",
            scheme=scheme,
            n_ops=MIXED_OPS,
            request_size=1024,
            footprint=SCALE.footprint,
            base_config=base,
            seed=seed + offset,
            fidelity="full",
        )
        for offset in range(MIXED_SEEDS)
        for scheme in MIXED_SCHEMES
    ]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: Builds the point grid for a seed (the "build the configs" step).
    specs: Callable[[int], List[PointSpec]]
    #: True: simulate through ``experiments.runner.run_points_report``;
    #: False: call ``simulate_workload`` per point.
    via_runner: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig13", _fig13_specs, True),
        Workload("fig14-8core", _fig14_specs, True),
        Workload("mixed-full", _mixed_specs, False),
    )
}


def point_label(index: int, spec: PointSpec) -> str:
    programs = f" x{spec.n_programs}" if spec.n_programs else ""
    return f"{index:03d} {spec.label()}{programs} seed={spec.seed} {spec.fidelity}"


# ----------------------------------------------------------------------
# Set-up: generate and decode every trace before the timed phase
# ----------------------------------------------------------------------


def _point_config(spec: PointSpec):
    # The same derivation simulate_workload/simulate_multiprogrammed make.
    return dataclasses.replace(
        scheme_config(spec.scheme, spec.base_config), fidelity=spec.fidelity
    )


def point_traces(spec: PointSpec) -> List:
    """Generate (and decode) the traces one point steps.

    The arguments mirror the simulation kernels' own trace requests, so
    the timed phase finds every trace in the process cache. A mismatch
    shows as ``generated_in_timed`` on the pass.
    """
    cfg = _point_config(spec)
    if spec.n_programs is None:
        trace = trace_cache.cached_generate_trace(
            spec.workload,
            n_ops=spec.n_ops,
            request_size=spec.request_size,
            footprint=spec.footprint,
            seed=spec.seed,
            warmup_ops=spec.warmup_ops,
            track_payloads=cfg.functional,
        )
        if cfg.hot_path and cfg.batched_replay:
            trace_cache.trace_arrays(trace)
            if trace.warmup_ops:
                trace_cache.warmup_trace_arrays(trace)
        return [trace]
    amap = cfg.address_map()
    footprint = amap.bank_size if spec.footprint is None else spec.footprint
    region = amap.capacity // spec.n_programs
    return [
        trace_cache.cached_generate_trace(
            spec.workload,
            n_ops=spec.n_ops,
            request_size=spec.request_size,
            footprint=min(footprint, region // 4),
            heap_base=program * region,
            heap_capacity=region,
            seed=spec.seed + program,
            track_payloads=cfg.functional,
        )
        for program in range(spec.n_programs)
    ]


@dataclass
class Setup:
    specs: List[PointSpec]
    #: Trace ops (warmup plus measured) each point steps, summed.
    ops: int
    seconds: float


def setup(workload: Workload, seed: int) -> Setup:
    """Cold trace cache, then build the grid and every trace it needs."""
    trace_cache.clear()
    gc.collect()
    t0 = perf_counter()
    specs = workload.specs(seed)
    ops = sum(
        len(trace.ops) + len(trace.warmup_ops)
        for spec in specs
        for trace in point_traces(spec)
    )
    return Setup(specs, ops, perf_counter() - t0)


# ----------------------------------------------------------------------
# The timed phase
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One simulated grid: timings, results and per-point failures."""

    seconds: float
    point_seconds: List[float]
    results: List[Optional[SimResult]]
    #: Per point: ``None`` when correct, else one of the ``FAIL_*`` codes.
    failures: List[Optional[str]]
    #: Trace-cache ``(hits, misses)`` of recorded hierarchy outcomes.
    outcomes: Tuple[int, int]
    #: Traces the timed phase had to generate itself (0 when set-up
    #: covered the grid).
    generated_in_timed: int
    #: Host speed factor measured during the pass (``None`` when the pass
    #: ran without the reference kernel).
    host_speed: Optional[float] = None
    digests: List[Optional[str]] = dataclasses.field(default_factory=list)


def _run_via_runner(specs, tracer, name, speed):
    point_seconds: List[float] = []

    def progress(done: int, total: int) -> None:
        nonlocal resume
        elapsed = perf_counter() - resume
        point_seconds.append(elapsed)
        if speed is not None:
            speed.sample(elapsed)
        resume = perf_counter()

    def sweep():
        return run_points_report(
            specs,
            jobs=1,
            label=name,
            progress=progress,
            policy=RunnerPolicy(max_attempts=1, backoff_s=0.0),
            faults=FaultPlan({}),
            metrics=NULL_METRICS,
        )

    t0 = resume = perf_counter()
    if tracer is None:
        results, report = sweep()
    else:
        results, report = tracer.timed("experiments.runner.run", sweep)
    t1 = perf_counter()
    failures: List[Optional[str]] = [None] * len(specs)
    for failure in report.failures:
        failures[failure.index] = FAIL_RAISED
    return t1 - t0, point_seconds, list(results), failures


def _run_direct(specs, speed):
    results: List[Optional[SimResult]] = []
    failures: List[Optional[str]] = []
    point_seconds: List[float] = []
    t0 = perf_counter()
    for spec in specs:
        p0 = perf_counter()
        try:
            # Looked up on the module so an installed shim sees the call.
            result = sim_simulator.simulate_workload(
                spec.workload,
                spec.scheme,
                n_ops=spec.n_ops,
                request_size=spec.request_size,
                footprint=spec.footprint,
                base_config=spec.base_config,
                seed=spec.seed,
                warmup_ops=spec.warmup_ops,
                counter_organization=spec.counter_organization,
                fidelity=spec.fidelity,
            )
            failure = None
        except Exception:  # a failing point is counted, not fatal
            traceback.print_exc()
            result, failure = None, FAIL_RAISED
        elapsed = perf_counter() - p0
        point_seconds.append(elapsed)
        if speed is not None:
            speed.sample(elapsed)
        results.append(result)
        failures.append(failure)
    return perf_counter() - t0, point_seconds, results, failures


def timed_pass(
    workload: Workload, prepared: Setup, tracer=None, speed: Optional[HostSpeed] = None
) -> Pass:
    """Simulate every point of ``prepared`` once; validates afterwards.

    With ``speed``, the reference kernel runs after every point (see
    :mod:`perfbench.hostspeed`); its time is excluded from the pass's
    ``seconds`` and ``point_seconds``.
    """
    gc.collect()
    generated0 = trace_cache.cache_stats()[1]
    kernel0 = speed.seconds if speed is not None else 0.0
    if workload.via_runner:
        seconds, point_seconds, results, failures = _run_via_runner(
            prepared.specs, tracer, workload.name, speed
        )
    else:
        seconds, point_seconds, results, failures = _run_direct(
            prepared.specs, speed
        )
    if speed is not None:
        seconds -= speed.seconds - kernel0
    done = Pass(
        seconds=seconds,
        point_seconds=point_seconds,
        results=results,
        failures=failures,
        outcomes=trace_cache.outcome_stats(),
        generated_in_timed=trace_cache.cache_stats()[1] - generated0,
        host_speed=speed.factor if speed is not None else None,
    )
    for index, (spec, result) in enumerate(zip(prepared.specs, results)):
        if result is None:
            done.digests.append(None)
            continue
        problem = check_point(spec, result)
        if problem is not None:
            print(f"perfbench: point {index}: {problem}", file=sys.stderr)
            done.failures[index] = FAIL_INVALID
        done.digests.append(result_digest(result))
    return done


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def check_point(spec: PointSpec, result: SimResult) -> Optional[str]:
    """Run the model's bookkeeping invariants with the scheme's flags."""
    cfg = scheme_config(spec.scheme, spec.base_config)
    try:
        validate_result(
            result,
            encrypted=cfg.encrypted,
            write_through=cfg.counter_cache.mode is CounterCacheMode.WRITE_THROUGH,
            n_banks=cfg.memory.n_banks,
        )
    except ValidationError as exc:
        return str(exc)
    return None


def result_digest(result: SimResult) -> str:
    """sha256 over everything a run reports: total time, every
    transaction latency, and every non-zero statistics counter."""
    h = hashlib.sha256()
    h.update(repr(result.total_time_ns).encode())
    h.update(repr(list(result.txn_latencies)).encode())
    raw = result.stats.raw()
    for key in sorted(raw):
        if raw[key]:
            h.update(repr((key, raw[key])).encode())
    return h.hexdigest()


def compare_digests(
    digests: List[Optional[str]],
    reference: List[Optional[str]],
    failures: List[Optional[str]],
    code: str,
) -> None:
    """Mark every point whose digest differs from ``reference``."""
    if len(reference) != len(digests):
        raise ValueError(
            f"reference has {len(reference)} points, the pass {len(digests)}"
        )
    for index, (got, want) in enumerate(zip(digests, reference)):
        if failures[index] is None and got != want:
            failures[index] = code
