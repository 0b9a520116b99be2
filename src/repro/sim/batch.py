"""Flat op arrays for batched trace replay.

A generated trace is a list of small tuples — friendly to build, hostile
to replay: every op pays tuple indexing, a bound-method call, and a
``len(op) > 2`` payload probe inside :meth:`~repro.sim.engine.CoreEngine
.step`. This module decodes a trace *once* into parallel flat arrays —
one ``bytes`` of op kinds plus one list of per-op arguments (line index,
compute nanoseconds, or transaction id) and an optional payload list —
that :meth:`~repro.sim.engine.CoreEngine.run_batched` consumes with
every per-op attribute lookup hoisted out of the inner loop.

The decode is cached alongside the trace by :mod:`repro.sim.trace_cache`
(one decode per process per trace, like trace generation itself), so a
six-scheme sweep over one (workload, size, seed) point decodes once and
replays the same arrays six times.

Decoding is purely structural — no timing state — so sharing
:class:`TraceArrays` across simulator instances is as sound as sharing
the trace tuples themselves. Replay through the arrays is **bit-identical**
to the scalar path (``tests/sim/test_batch.py`` differential-tests it
across schemes and fidelities).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.common.errors import SimulationError
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

# The batched loop compares raw byte values against these constants and
# relies on load/store being the two smallest opcodes (one `<=` covers
# both). Fail at import time if the encoding ever shifts.
if (OP_LOAD, OP_STORE, OP_CLWB, OP_FENCE, OP_TXN_BEGIN, OP_TXN_END, OP_COMPUTE) != (
    0,
    1,
    2,
    3,
    4,
    5,
    6,
):  # pragma: no cover - a trace-encoding change must update batch.py too
    raise ImportError("trace opcode encoding changed; update repro.sim.batch")


class TraceArrays:
    """One trace decoded into parallel flat arrays.

    ``kinds``
        ``bytes`` of length ``n`` — the opcode of each op (indexing a
        ``bytes`` yields a small int with no allocation).
    ``args``
        Per-op argument: line index for load/store/clwb, nanoseconds for
        compute, transaction id for txn markers, 0 for sfence.
    ``payloads``
        ``None`` for timing traces; for functional traces a list of
        length ``n`` holding each clwb's payload (or ``None``), exactly
        what the scalar ``op[2] if len(op) > 2 else None`` probe yields.
    """

    __slots__ = ("kinds", "args", "payloads", "n")

    def __init__(
        self,
        kinds: bytes,
        args: List[object],
        payloads: Optional[List[Optional[bytes]]],
        n: int,
    ):
        self.kinds = kinds
        self.args = args
        self.payloads = payloads
        self.n = n


# ----------------------------------------------------------------------
# Hierarchy outcome streams
# ----------------------------------------------------------------------
#
# The CPU cache walk (:meth:`repro.cache.hierarchy.CacheHierarchy.access`
# / ``clwb``) is a pure function of the op sequence and the cache
# geometry: SRAM hit/miss decisions, fills, evictions and dirty bits
# never depend on memory-system timing, and the six schemes of a sweep
# share one cache geometry. A sweep therefore replays the *same* walk
# once per scheme. Recording the walk's outcomes once — per-op resolved
# kind, SRAM latency, write-back victims, plus the total cache-stat
# delta — lets every subsequent replay of the same (trace, geometry)
# skip the walk entirely and charge the recorded outcomes, which is
# bit-identical by construction (asserted by tests/sim/test_batch.py).
#
# Resolved per-op kinds consumed by the replay loops (ordered so the
# common cases compare first):
BK_MEM_HIT = 0  #: load/store, SRAM hit, no memory write-back
BK_CLWB_DIRTY = 1  #: clwb of a dirty line (persist required)
BK_MEM_MISS = 2  #: load/store, missed all levels, no write-back
BK_FENCE = 3
BK_TXN_BEGIN = 4
BK_TXN_END = 5
BK_COMPUTE = 6
BK_CLWB_CLEAN = 7  #: clwb of a clean/absent line (no memory traffic)
BK_MEM_HIT_WB = 8  #: hit that pushed dirty victim(s) out of the LLC
BK_MEM_MISS_WB = 9  #: miss that pushed dirty victim(s) out of the LLC


class OutcomeSegment:
    """The recorded hierarchy outcomes of one op segment.

    ``kinds``
        ``bytes`` of resolved ``BK_*`` codes, index-aligned with the
        segment's :class:`TraceArrays`.
    ``lats``
        Per-op SRAM walk latency (meaningful for loads/stores; 0.0
        elsewhere).
    ``wbs``
        Sparse map ``op index -> tuple of victim lines`` for the rare
        ``*_WB`` ops.
    """

    __slots__ = ("kinds", "lats", "wbs")

    def __init__(self, kinds: bytes, lats: List[float], wbs: dict):
        self.kinds = kinds
        self.lats = lats
        self.wbs = wbs


class ReplayOutcomes:
    """One full recording: warmup segment, measured segment, stat delta.

    ``stat_delta`` is the exact delta the hierarchy applied to the cache
    stat namespaces (``l1``/``l2``/``l3``/``hierarchy``) over the whole
    run (warmup + measured); replays apply it in one shot instead of
    bumping per access. Keyed per cache geometry by
    :func:`repro.sim.trace_cache.trace_outcomes`.
    """

    __slots__ = ("main", "warmup", "stat_delta")

    def __init__(
        self,
        main: OutcomeSegment,
        warmup: Optional[OutcomeSegment],
        stat_delta: tuple,
    ):
        self.main = main
        self.warmup = warmup
        self.stat_delta = stat_delta


#: Stat namespaces owned exclusively by the (single-core) cache
#: hierarchy; the recorded ``stat_delta`` covers exactly these.
HIERARCHY_STAT_NAMESPACES = ("l1", "l2", "l3", "hierarchy")


# ----------------------------------------------------------------------
# Private-level outcome streams (multi-core runs)
# ----------------------------------------------------------------------
#
# Under a shared L3 the whole walk is no longer a function of one core's
# ops, but its private half is: the hierarchy has no back-invalidation,
# and an L3 hit only refreshes lines the L1/L2 miss-fills already
# inserted. So one core's L1/L2 outcomes are recorded once per (trace,
# L1/L2 geometry) and the shared-L3 steps run live in the recorded order.
# Resolved per-op codes (fence/txn/compute reuse the ``BK_*`` values):
PV_L1_HIT = 0  #: load/store served by L1
PV_CLWB_DIRTY = 1  #: clwb with a dirty private copy (persist required)
PV_L3 = 2  #: load/store that missed L2: the shared L3 decides
PV_CLWB_PROBE = 7  #: clwb with clean private copies: the L3 copy decides
PV_L2_HIT = 8  #: load/store served by L2
PV_L2_HIT_VICTIMS = 9  #: L2 hit that sent dirty L2 victim(s) to L3
PV_L3_VICTIMS = 10  #: L2 miss that sent dirty L2 victim(s) to L3


class PrivateOutcomes:
    """One core's recorded L1/L2 walk.

    ``codes``
        ``bytes`` of ``PV_*`` codes, index-aligned with the trace's
        :class:`TraceArrays`. The SRAM latency of a load/store follows
        from its code (L1, L1+L2 or L1+L2+L3 lookups).
    ``victims``
        Sparse map ``op index -> tuple of dirty L2 victims``, in the
        order the walk installs them in L3 (before the op's L3 access).
    ``stat_delta``
        ``((namespace, counter), delta)`` over the ``l1``/``l2``
        namespaces, unprefixed; the multi-core kernel adds its
        ``core{i}.`` prefix when it applies the delta.
    """

    __slots__ = ("codes", "victims", "stat_delta")

    def __init__(self, codes: bytes, victims: dict, stat_delta: tuple):
        self.codes = codes
        self.victims = victims
        self.stat_delta = stat_delta


def build_arrays(ops: Sequence[TraceOp]) -> TraceArrays:
    """Decode one op sequence into :class:`TraceArrays`.

    Unknown opcodes raise :class:`~repro.common.errors.SimulationError`
    here — at decode time — mirroring the scalar path's per-op check.
    """
    n = len(ops)
    kinds = bytearray(n)
    args: List[object] = [0] * n
    payloads: Optional[List[Optional[bytes]]] = None
    for i, op in enumerate(ops):
        kind = op[0]
        if not (isinstance(kind, int) and OP_LOAD <= kind <= OP_COMPUTE):
            raise SimulationError(f"unknown trace op {op!r}")
        kinds[i] = kind
        if len(op) > 1:
            args[i] = op[1]
        if kind == OP_CLWB and len(op) > 2 and op[2] is not None:
            if payloads is None:
                payloads = [None] * n
            payloads[i] = op[2]
    return TraceArrays(bytes(kinds), args, payloads, n)
