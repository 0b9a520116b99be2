"""The per-core trace replay engine.

One :class:`CoreEngine` owns a core's clock and private cache hierarchy and
replays trace ops against the shared :class:`~repro.core.system.
SecureMemorySystem`:

* **loads/stores** walk the hierarchy; misses become memory reads (with
  the counter-cache/OTP overlap inside the system); dirty last-level
  evictions become memory writes through the full encryption path —
  fire-and-forget from the core's perspective, like a hardware write
  buffer;
* **clwb** flushes a dirty line into the persistence domain; the core
  waits for the *append* (durability under ADR), which is where full-
  write-queue stalls — the paper's central bottleneck — surface;
* **sfence** adds the fence cost (appends are already ordered here);
* **txn markers** delimit per-transaction latency measurement.

Single-core batched runs go through :meth:`CoreEngine.run_batched_replay`,
which drives the memory system from a hierarchy-outcome segment over
pre-decoded op arrays. Recording (:meth:`CoreEngine.run_batched_record`)
is a hierarchy-only walk that produces such a segment and then replays
it, and :meth:`CoreEngine.run_batched` is a recording nobody keeps.

Multi-core runs (:mod:`repro.sim.multicore`) interleave cores through
generators that run one core until its clock passes a limit.
:meth:`CoreEngine.interleave_replay` replays the core's recorded L1/L2
walk (:func:`record_private_levels`) and walks only the shared L3 live;
:meth:`CoreEngine.interleave_steps` runs :meth:`CoreEngine.step`, the
scalar one-op step, or ``_step_ref``, its reference oracle
(``hot_path=False``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.sram import SetAssociativeCache
from repro.common.config import CacheConfig, SimConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.core.system import SecureMemorySystem
from repro.obs.tracer import NULL_TRACER
from repro.sim.batch import (
    BK_CLWB_CLEAN,
    BK_CLWB_DIRTY,
    BK_COMPUTE,
    BK_FENCE,
    BK_MEM_HIT,
    BK_MEM_HIT_WB,
    BK_MEM_MISS,
    BK_MEM_MISS_WB,
    BK_TXN_BEGIN,
    BK_TXN_END,
    PV_CLWB_DIRTY,
    PV_CLWB_PROBE,
    PV_L1_HIT,
    PV_L2_HIT,
    PV_L2_HIT_VICTIMS,
    PV_L3,
    PV_L3_VICTIMS,
    OutcomeSegment,
    PrivateOutcomes,
)
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
    TraceOp,
)

#: Outcome codes of the ops that never touch the cache hierarchy.
_OTHER_OUTCOME = {
    OP_FENCE: BK_FENCE,
    OP_TXN_BEGIN: BK_TXN_BEGIN,
    OP_TXN_END: BK_TXN_END,
    OP_COMPUTE: BK_COMPUTE,
}


class CoreEngine:
    """Replays one op stream on one core."""

    def __init__(
        self,
        core_id: int,
        config: SimConfig,
        system: SecureMemorySystem,
        stats: Stats,
        shared_l3: Optional[SetAssociativeCache] = None,
        tracer=NULL_TRACER,
    ):
        self.core_id = core_id
        self.config = config
        self.system = system
        self.stats = stats
        self.tracer = tracer
        prefix = f"core{core_id}." if shared_l3 is not None else ""
        self.hierarchy = CacheHierarchy(
            l1=config.l1,
            l2=config.l2,
            l3=config.l3,
            timing=config.timing,
            stats=stats,
            shared_l3=shared_l3,
            name_prefix=prefix,
        )
        self.clock: float = 0.0
        self.txn_latencies: List[float] = []
        self._txn_start: Optional[float] = None
        self._measuring = True
        # Hoisted timing constants: the reference step re-reads
        # config.timing.<attr> per op; the fast step uses these.
        timing = config.timing
        self._cpu_op_ns = timing.cpu_op_ns
        self._clwb_issue_ns = timing.clwb_issue_ns
        self._sfence_ns = timing.sfence_ns
        # hot_path=False swaps in the straightforward per-op implementation
        # (the differential oracle / slow benchmark leg). Instance-attribute
        # binding shadows the class method, so callers pay no dispatch.
        if not config.hot_path:
            self.step = self._step_ref  # type: ignore[method-assign]

    # ------------------------------------------------------------------

    def set_measuring(self, measuring: bool) -> None:
        """Toggle transaction-latency recording (off during warmup)."""
        self._measuring = measuring

    def step(self, op: TraceOp) -> None:
        """Execute one trace op, advancing this core's clock.

        Fast path: loads/stores drive :meth:`CacheHierarchy.access` (tuple
        result, no outcome allocation) with timing constants pre-hoisted.
        Arithmetic order matches :meth:`_step_ref` operation for operation,
        so clocks — and therefore all stats — are bit-identical.
        """
        kind = op[0]
        if kind == OP_LOAD or kind == OP_STORE:
            clock = self.clock + self._cpu_op_ns
            line = op[1]
            hit_level, latency, writebacks = self.hierarchy.access(
                line, kind == OP_STORE
            )
            clock += latency
            if hit_level is None:
                # Memory access on the critical path (write-allocate fetch
                # for stores, demand read for loads).
                clock = self.system.read_line(clock, line, core=self.core_id).finish_time
            self.clock = clock
            if writebacks:
                # Dirty last-level evictions: asynchronous from the core's
                # view (hardware write buffers), so the clock does not chase
                # them. persistent=False marks them as not-crash-critical
                # (only the SCA scheme differentiates).
                persist = self.system.persist_line
                core = self.core_id
                for victim in writebacks:
                    persist(clock, victim, core=core, persistent=False)
        elif kind == OP_CLWB:
            clock = self.clock + self._clwb_issue_ns
            self.clock = clock
            line = op[1]
            payload = op[2] if len(op) > 2 else None
            if self.hierarchy.clwb(line):
                result = self.system.persist_line(
                    clock, line, payload=payload, core=self.core_id
                )
                # Durability is append time (ADR); the core resumes once
                # the line is accepted into the write queue.
                if result.durable_time > clock:
                    self.clock = result.durable_time
        elif kind == OP_FENCE:
            self.clock += self._sfence_ns
        elif kind == OP_TXN_BEGIN:
            self._txn_start = self.clock
        elif kind == OP_TXN_END:
            if self._txn_start is not None and self._measuring:
                self.txn_latencies.append(self.clock - self._txn_start)
            if self._txn_start is not None and self.tracer.enabled:
                self.tracer.txn(self._txn_start, self.clock, self.core_id)
            self._txn_start = None
        elif kind == OP_COMPUTE:
            self.clock += op[1]
        else:
            raise SimulationError(f"unknown trace op {op!r}")

    def _step_ref(self, op: TraceOp) -> None:
        """Reference step: per-op attribute walks, outcome objects."""
        kind = op[0]
        timing = self.config.timing
        if kind == OP_LOAD:
            self.clock += timing.cpu_op_ns
            self._access(op[1], write=False)
        elif kind == OP_STORE:
            self.clock += timing.cpu_op_ns
            self._access(op[1], write=True)
        elif kind == OP_CLWB:
            self.clock += timing.clwb_issue_ns
            line = op[1]
            payload = op[2] if len(op) > 2 else None
            if self.hierarchy.clwb(line):
                result = self.system.persist_line(
                    self.clock, line, payload=payload, core=self.core_id
                )
                self.clock = max(self.clock, result.durable_time)
        elif kind == OP_FENCE:
            self.clock += timing.sfence_ns
        elif kind == OP_TXN_BEGIN:
            self._txn_start = self.clock
        elif kind == OP_TXN_END:
            if self._txn_start is not None and self._measuring:
                self.txn_latencies.append(self.clock - self._txn_start)
            if self._txn_start is not None and self.tracer.enabled:
                self.tracer.txn(self._txn_start, self.clock, self.core_id)
            self._txn_start = None
        elif kind == OP_COMPUTE:
            self.clock += op[1]
        else:
            raise SimulationError(f"unknown trace op {op!r}")

    def _access(self, line: int, write: bool) -> None:
        outcome = (
            self.hierarchy.write_ref(line) if write else self.hierarchy.read_ref(line)
        )
        self.clock += outcome.latency_ns
        if outcome.hit_level is None:
            result = self.system.read_line(self.clock, line, core=self.core_id)
            self.clock = result.finish_time
        for victim in outcome.memory_writebacks:
            self.system.persist_line(
                self.clock, victim, core=self.core_id, persistent=False
            )

    def run(self, ops) -> None:
        """Replay a whole op sequence."""
        step = self.step
        for op in ops:
            step(op)

    def run_batched(self, arrays) -> None:
        """Replay pre-decoded :class:`~repro.sim.batch.TraceArrays`: a
        recording nobody keeps."""
        self.run_batched_record(arrays)

    def run_batched_record(self, arrays) -> OutcomeSegment:
        """Replay ``arrays``, returning the hierarchy outcomes it walked.

        The cache hierarchy is walked over the whole segment first, one
        resolved ``BK_*`` code and SRAM latency per op plus the sparse
        write-back victims, and the result drives
        :meth:`run_batched_replay`. Walking ahead is exact: the hierarchy
        reads no memory timing and emits no tracer events, so every
        memory request, stat and event happens at the clock and in the
        order of an interleaved walk. The returned segment replays these
        arrays under any scheme with the same cache geometry.
        """
        kinds = arrays.kinds
        args = arrays.args
        n = arrays.n
        access = self.hierarchy.access
        clwb = self.hierarchy.clwb
        store_k = OP_STORE
        clwb_k = OP_CLWB
        other = _OTHER_OUTCOME
        codes = bytearray(n)  # zero-filled: BK_MEM_HIT
        lats = [0.0] * n
        wbs = {}
        for i in range(n):
            kind = kinds[i]
            if kind <= store_k:  # OP_LOAD or OP_STORE
                hit_level, latency, writebacks = access(args[i], kind == store_k)
                lats[i] = latency
                if writebacks:
                    wbs[i] = tuple(writebacks)
                    codes[i] = BK_MEM_MISS_WB if hit_level is None else BK_MEM_HIT_WB
                elif hit_level is None:
                    codes[i] = BK_MEM_MISS
            elif kind == clwb_k:
                codes[i] = BK_CLWB_DIRTY if clwb(args[i]) else BK_CLWB_CLEAN
            else:  # build_arrays rejects anything else
                codes[i] = other[kind]
        segment = OutcomeSegment(bytes(codes), lats, wbs)
        self.run_batched_replay(arrays, segment)
        return segment

    def run_batched_replay(self, arrays, segment) -> None:
        """Replay a recorded hierarchy-outcome ``segment`` over ``arrays``.

        The cache walk is skipped entirely: each op's resolved kind, SRAM
        latency, and write-back victims come from the recording, so an
        SRAM-hit load/store costs two float adds and nothing else. Memory
        traffic (misses, dirty clwbs, write-backs) is driven at exactly
        the clocks and in exactly the order of a walked run, and the
        recorded cache-stat delta is applied by the caller
        (:meth:`repro.sim.simulator.Simulator.run`) — so results are
        bit-identical to a walked run.

        This is the one op loop of every batched run: everything per-op
        is hoisted (no method dispatch, no tuple indexing, the clock in a
        local published at the end), and memory traffic goes through the
        float-returning bodies of
        :class:`~repro.core.system.SecureMemorySystem`.
        """
        if segment.kinds is not None and len(segment.kinds) != arrays.n:
            raise SimulationError(
                "outcome segment does not match op arrays "
                f"({len(segment.kinds)} outcomes, {arrays.n} ops)"
            )
        args = arrays.args
        payloads = arrays.payloads
        n = arrays.n
        bkinds = segment.kinds
        lats = segment.lats
        wbs = segment.wbs
        core = self.core_id
        cpu_op_ns = self._cpu_op_ns
        clwb_issue_ns = self._clwb_issue_ns
        sfence_ns = self._sfence_ns
        txn_latencies = self.txn_latencies
        tracer = self.tracer
        tracer_enabled = tracer.enabled
        measuring = self._measuring
        read_line = self.system.read_line_fast
        persist = self.system.persist_line_fast
        clock = self.clock
        txn_start = self._txn_start
        for i in range(n):
            kind = bkinds[i]
            if kind == BK_MEM_HIT:
                clock += cpu_op_ns
                clock += lats[i]
            elif kind == BK_CLWB_DIRTY:
                clock += clwb_issue_ns
                durable = persist(
                    clock,
                    args[i],
                    None if payloads is None else payloads[i],
                    core,
                )
                # Durability is append time (ADR); the core resumes
                # once the line is accepted into the write queue.
                if durable > clock:
                    clock = durable
            elif kind == BK_MEM_MISS:
                clock += cpu_op_ns
                clock += lats[i]
                clock = read_line(clock, args[i], core)
            elif kind == BK_FENCE:
                clock += sfence_ns
            elif kind == BK_TXN_BEGIN:
                txn_start = clock
            elif kind == BK_TXN_END:
                if txn_start is not None:
                    if measuring:
                        txn_latencies.append(clock - txn_start)
                    if tracer_enabled:
                        tracer.txn(txn_start, clock, core)
                txn_start = None
            elif kind == BK_COMPUTE:
                clock += args[i]
            elif kind == BK_CLWB_CLEAN:
                clock += clwb_issue_ns
            else:  # BK_MEM_HIT_WB / BK_MEM_MISS_WB
                clock += cpu_op_ns
                clock += lats[i]
                if kind == BK_MEM_MISS_WB:
                    clock = read_line(clock, args[i], core)
                # Dirty last-level evictions: asynchronous from the
                # core's view (hardware write buffers), and not
                # crash-critical (persistent=False).
                for victim in wbs[i]:
                    persist(clock, victim, None, core, False)
        self.clock = clock
        self._txn_start = txn_start

    # ------------------------------------------------------------------
    # Multi-core interleaving
    # ------------------------------------------------------------------
    #
    # Both generators below are primed with ``next()`` and then resumed
    # with ``send(limit)``: the core runs ops until its clock reaches
    # ``limit`` with ops still left, yields that clock, and finishes
    # (StopIteration) after its last op. The caller's heap loop picks the
    # core and the limit (see :meth:`repro.sim.multicore.
    # MulticoreSimulator.run`).

    def interleave_steps(self, ops):
        """Run ``ops`` through :meth:`step` (or ``_step_ref``) in turns."""
        step = self.step
        n = len(ops)
        limit = yield
        for i in range(n):
            step(ops[i])
            if self.clock >= limit and i + 1 < n:
                limit = yield self.clock

    def interleave_replay(self, arrays, private: PrivateOutcomes):
        """Replay this core's recorded L1/L2 walk in turns; L3 runs live.

        ``private`` is the :func:`record_private_levels` recording of
        ``arrays``. Each load/store charges the SRAM latency its code
        names; the shared-L3 steps the recording deferred run here, in
        the order :meth:`CacheHierarchy.access` makes them: dirty L2
        victims are installed in L3, then an L2 miss accesses L3, whose
        miss becomes a memory read. Dirty lines L3 evicts are written
        back after the read. A clwb cleans the L3 copy too, which
        decides whether a clean private copy needs a persist. Memory
        traffic goes through the float-returning persist/read bodies, so
        the run is bit-identical to stepping the ops through
        :meth:`step`.
        """
        args = arrays.args
        payloads = arrays.payloads
        n = arrays.n
        codes = private.codes
        victims = private.victims
        l3 = self.hierarchy.l3
        l3_access = l3.access
        l3_fill = l3.fill
        l3_clean = l3.clean
        to_l1, to_l2, to_l3 = self.hierarchy.walk_latencies_ns
        vals = self.stats.raw()
        k_clwb = ("hierarchy", "clwb")
        k_clwb_dirty = ("hierarchy", "clwb_dirty")
        k_writebacks = ("hierarchy", "memory_writebacks")
        core = self.core_id
        cpu_op_ns = self._cpu_op_ns
        clwb_issue_ns = self._clwb_issue_ns
        sfence_ns = self._sfence_ns
        txn_latencies = self.txn_latencies
        tracer = self.tracer
        tracer_enabled = tracer.enabled
        measuring = self._measuring
        read_line = self.system.read_line_fast
        persist = self.system.persist_line_fast
        clock = self.clock
        txn_start = self._txn_start
        limit = yield
        for i in range(n):
            code = codes[i]
            if code == PV_L1_HIT:
                clock += cpu_op_ns
                clock += to_l1
            elif code == PV_CLWB_DIRTY:
                clock += clwb_issue_ns
                line = args[i]
                l3_clean(line)
                vals[k_clwb] += 1
                vals[k_clwb_dirty] += 1
                durable = persist(
                    clock, line, None if payloads is None else payloads[i], core
                )
                # Durability is append time (ADR); the core resumes once
                # the line is accepted into the write queue.
                if durable > clock:
                    clock = durable
            elif code == PV_L3:
                clock += cpu_op_ns
                clock += to_l3
                line = args[i]
                hit, evicted = l3_access(line, False)
                if not hit:
                    clock = read_line(clock, line, core)
                if evicted is not None and evicted.dirty:
                    vals[k_writebacks] += 1
                    persist(clock, evicted.line, None, core, False)
            elif code == BK_FENCE:
                clock += sfence_ns
            elif code == BK_TXN_BEGIN:
                txn_start = clock
            elif code == BK_TXN_END:
                if txn_start is not None:
                    if measuring:
                        txn_latencies.append(clock - txn_start)
                    if tracer_enabled:
                        tracer.txn(txn_start, clock, core)
                txn_start = None
            elif code == BK_COMPUTE:
                clock += args[i]
            elif code == PV_CLWB_PROBE:
                clock += clwb_issue_ns
                line = args[i]
                vals[k_clwb] += 1
                if l3_clean(line):
                    vals[k_clwb_dirty] += 1
                    durable = persist(
                        clock, line, None if payloads is None else payloads[i], core
                    )
                    if durable > clock:
                        clock = durable
            elif code == PV_L2_HIT:
                clock += cpu_op_ns
                clock += to_l2
            else:  # PV_L2_HIT_VICTIMS / PV_L3_VICTIMS
                clock += cpu_op_ns
                writebacks = []
                for victim in victims[i]:
                    evicted = l3_fill(victim, True)
                    if evicted is not None and evicted.dirty:
                        writebacks.append(evicted.line)
                if code == PV_L3_VICTIMS:
                    clock += to_l3
                    line = args[i]
                    hit, evicted = l3_access(line, False)
                    if evicted is not None and evicted.dirty:
                        writebacks.append(evicted.line)
                    if not hit:
                        clock = read_line(clock, line, core)
                else:
                    clock += to_l2
                # Dirty L3 evictions: asynchronous from the core's view
                # and not crash-critical (persistent=False).
                for victim in writebacks:
                    vals[k_writebacks] += 1
                    persist(clock, victim, None, core, False)
            if clock >= limit and i + 1 < n:
                self.clock = clock
                limit = yield clock
        self.clock = clock
        self._txn_start = txn_start


def record_private_levels(
    arrays, l1: CacheConfig, l2: CacheConfig
) -> PrivateOutcomes:
    """Walk one core's private L1/L2 over ``arrays``, deferring L3.

    The walk is :meth:`CacheHierarchy.access`/``clwb`` cut at L2: a dirty
    L1 victim lands dirty in L2, a dirty L2 victim is noted for L3, and
    an L2 miss is noted as an L3 access. Cutting there is exact under a
    shared L3: the hierarchy has no back-invalidation, and an L3 hit only
    refreshes lines the L1/L2 miss-fills already inserted (its fills find
    them resident, most recent, with the same dirty bit). So the L1/L2
    stream depends only on this core's own program order, and
    :meth:`CoreEngine.interleave_replay` can run the L3 steps later in
    the recorded per-op order.
    """
    stats = Stats()
    l1_cache = SetAssociativeCache(l1, stats, "l1")
    l2_cache = SetAssociativeCache(l2, stats, "l2")
    l1_access = l1_cache.access
    l1_clean = l1_cache.clean
    l2_access = l2_cache.access
    l2_fill = l2_cache.fill
    l2_clean = l2_cache.clean
    kinds = arrays.kinds
    args = arrays.args
    n = arrays.n
    store_k = OP_STORE
    clwb_k = OP_CLWB
    other = _OTHER_OUTCOME
    codes = bytearray(n)  # zero-filled: PV_L1_HIT
    victims = {}
    for i in range(n):
        kind = kinds[i]
        if kind <= store_k:  # OP_LOAD or OP_STORE
            line = args[i]
            hit, evicted = l1_access(line, kind == store_k)
            if hit:
                continue
            out = None
            if evicted is not None and evicted.dirty:
                evicted = l2_fill(evicted.line, True)
                if evicted is not None and evicted.dirty:
                    out = [evicted.line]
            hit, evicted = l2_access(line, False)
            if evicted is not None and evicted.dirty:
                if out is None:
                    out = [evicted.line]
                else:
                    out.append(evicted.line)
            if out is None:
                codes[i] = PV_L2_HIT if hit else PV_L3
            else:
                victims[i] = tuple(out)
                codes[i] = PV_L2_HIT_VICTIMS if hit else PV_L3_VICTIMS
        elif kind == clwb_k:
            line = args[i]
            dirty = l1_clean(line)
            dirty = l2_clean(line) or dirty
            codes[i] = PV_CLWB_DIRTY if dirty else PV_CLWB_PROBE
        else:  # build_arrays rejects anything else
            codes[i] = other[kind]
    delta = tuple((key, value) for key, value in stats.raw().items() if value)
    return PrivateOutcomes(bytes(codes), victims, delta)
