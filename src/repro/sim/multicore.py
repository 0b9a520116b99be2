"""Multi-programmed simulation (paper Figure 14).

``N`` programs run the same workload on different cores, each with a
private L1/L2 and its own physical region (footprint = one bank's worth of
memory, the paper's setup), sharing the L3, the memory controller, the
write queue, and the counter cache. Cores are interleaved by local time:
the core with the smallest clock executes its next op (ties go to the
lowest core index), which is the standard conservative interleaving for
trace-driven multi-core simulation. A heap of ``(clock, core)`` keeps that
pick O(log cores). The picked core keeps running while its ``(clock,
core)`` stays below the heap top, which is the same op order as one pick
per op: only the running core's clock moves.

With the production configuration (``hot_path`` and ``batched_replay``)
each core replays a recording of its private L1/L2 walk
(:func:`~repro.sim.engine.record_private_levels`), made once per (trace,
L1/L2 geometry) and shared through the trace cache by every scheme of a
sweep; only the shared L3 is walked live
(:meth:`~repro.sim.engine.CoreEngine.interleave_replay`). Otherwise every
op goes through the scalar ``CoreEngine.step`` (or its reference oracle
with ``hot_path=False``). All three orders give bit-identical results.

Cores behind the shared controller's clock append writes stamped earlier
than entries already queued; the drain scheduler does not depend on
append order (see ``MemoryController._best_candidate``).
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from typing import List, Optional, Sequence, Union

from repro.cache.sram import SetAssociativeCache
from repro.common.config import SimConfig
from repro.common.errors import ConfigError
from repro.common.stats import Stats
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.sim.batch import build_arrays
from repro.sim.engine import CoreEngine, record_private_levels
from repro.sim.metrics import SimResult
from repro.sim.trace_cache import (
    cached_generate_trace,
    private_outcomes,
    trace_arrays,
    use_store,
)
from repro.txn.persist import TraceOp
from repro.workloads.generator import GeneratedTrace


class MulticoreSimulator:
    """N cores over one shared memory system."""

    def __init__(self, config: SimConfig, n_cores: int, tracer=None):
        if n_cores < 1:
            raise ConfigError("need at least one core")
        self.config = config
        self.n_cores = n_cores
        self.stats = Stats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.system = SecureMemorySystem(config, stats=self.stats, tracer=self.tracer)
        shared_l3 = SetAssociativeCache(config.l3, self.stats, "l3")
        self.engines = [
            CoreEngine(
                core,
                config,
                self.system,
                self.stats,
                shared_l3=shared_l3,
                tracer=self.tracer,
            )
            for core in range(n_cores)
        ]

    def run(
        self, traces: Sequence[Union[GeneratedTrace, List[TraceOp]]]
    ) -> SimResult:
        """Interleave one op stream per core by local time.

        Each entry of ``traces`` is a :class:`GeneratedTrace` (its arrays
        and private-level recording come from the trace cache) or a plain
        op list (decoded and recorded for this run only).
        """
        if len(traces) != self.n_cores:
            raise ConfigError(
                f"{self.n_cores} cores but {len(traces)} traces supplied"
            )
        cfg = self.config
        replay = cfg.hot_path and cfg.batched_replay
        runs = []
        for engine, trace in zip(self.engines, traces):
            if replay:
                run, n_ops = self._replay_run(engine, trace)
            else:
                ops = trace.ops if isinstance(trace, GeneratedTrace) else trace
                run, n_ops = engine.interleave_steps(ops), len(ops)
            next(run)
            runs.append(run if n_ops else None)
        # The core with the smallest (clock, core) runs until it passes
        # the smallest entry left in the heap; the limit turns that
        # tuple order into one float compare per op.
        ready = [
            (engine.clock, core)
            for core, engine in enumerate(self.engines)
            if runs[core] is not None
        ]
        heapq.heapify(ready)
        inf = math.inf
        nextafter = math.nextafter
        while ready:
            _, core = heapq.heappop(ready)
            if ready:
                top_clock, top_core = ready[0]
                limit = top_clock if core > top_core else nextafter(top_clock, inf)
            else:
                limit = inf
            try:
                clock = runs[core].send(limit)
            except StopIteration:
                continue
            heapq.heappush(ready, (clock, core))
        drain_finish = self.system.drain()
        total = max(max(e.clock for e in self.engines), drain_finish)
        latencies: List[float] = []
        for engine in self.engines:
            latencies.extend(engine.txn_latencies)
        return SimResult(
            total_time_ns=total, txn_latencies=latencies, stats=self.stats
        )

    def _replay_run(self, engine: CoreEngine, trace):
        """``engine``'s recorded-L1/L2 run of ``trace`` and its op count.

        The recording's private cache-stat delta is applied here under
        the core's ``core{i}.`` prefix, in place of the bumps its walk
        would have made.
        """
        cfg = self.config
        if isinstance(trace, GeneratedTrace):
            arrays = trace_arrays(trace)
            private = private_outcomes(
                trace,
                ("private", cfg.l1, cfg.l2),
                lambda: record_private_levels(arrays, cfg.l1, cfg.l2),
            )
        else:
            arrays = build_arrays(trace)
            private = record_private_levels(arrays, cfg.l1, cfg.l2)
        prefix = f"core{engine.core_id}."
        vals = self.stats.raw()
        for (namespace, counter), delta in private.stat_delta:
            vals[(prefix + namespace, counter)] += delta
        return engine.interleave_replay(arrays, private), arrays.n


def simulate_multiprogrammed(
    workload: "str | List[str]",
    scheme: Scheme,
    n_programs: Optional[int] = None,
    n_ops: int = 100,
    request_size: int = 1024,
    footprint: Optional[int] = None,
    base_config: Optional[SimConfig] = None,
    seed: int = 1,
    fidelity: str = "timing",
    tracer=None,
) -> SimResult:
    """The Figure 14 kernel: N programs on N cores.

    ``workload`` is either one name (the paper's homogeneous setup — N
    copies of the same program) or a list of names, one per core, for
    heterogeneous mixes. Each program's footprint defaults to one bank's
    worth of capacity and its heap sits in its own region of the physical
    space, so with ``n_programs == n_banks`` every bank is busy — the
    XBank worst case the paper calls out.

    ``fidelity`` mirrors :func:`~repro.sim.simulator.simulate_workload`:
    ``"timing"`` (default) skips functional byte work, ``"full"`` carries
    payloads through the crypto path; both produce identical timing/stats.
    ``tracer`` is handed to the :class:`MulticoreSimulator`.
    """
    if isinstance(workload, str):
        if n_programs is None:
            raise ConfigError("n_programs required with a single workload name")
        workloads = [workload] * n_programs
    else:
        workloads = list(workload)
        if n_programs is not None and n_programs != len(workloads):
            raise ConfigError(
                f"n_programs={n_programs} but {len(workloads)} workloads given"
            )
        n_programs = len(workloads)
    if n_programs < 1:
        raise ConfigError("need at least one program")

    cfg = dataclasses.replace(scheme_config(scheme, base_config), fidelity=fidelity)
    use_store(cfg.outcome_store)
    amap = cfg.address_map()
    if footprint is None:
        footprint = amap.bank_size
    region = amap.capacity // n_programs
    traces = []
    for program, name in enumerate(workloads):
        trace = cached_generate_trace(
            name,
            n_ops=n_ops,
            request_size=request_size,
            footprint=min(footprint, region // 4),
            heap_base=program * region,
            heap_capacity=region,
            seed=seed + program,
            track_payloads=cfg.functional,
        )
        traces.append(trace)
    sim = MulticoreSimulator(cfg, n_cores=n_programs, tracer=tracer)
    return sim.run(traces)
