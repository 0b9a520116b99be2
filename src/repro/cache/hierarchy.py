"""Three-level CPU cache hierarchy with persistence instructions.

Models the paper's L1 (32 KB) / L2 (512 KB) / shared L3 (4 MB) stack as a
mostly-inclusive write-back, write-allocate hierarchy:

* a fill at level *N* also fills levels above it;
* a dirty victim evicted from L1/L2 is installed dirty in the next level;
* a dirty victim evicted from L3 becomes an NVM write-back (which, in an
  encrypted NVM, triggers the whole counter machinery like any other
  write — evictions are not exempt from encryption);
* ``clwb`` writes the newest dirty copy back toward memory and *cleans*
  the cached copies without invalidating them (matching the instruction the
  paper uses for persistence);
* ``clflush`` additionally invalidates.

For the multi-core experiments, each core owns a private
:class:`CacheHierarchy` for L1/L2 while L3 is shared — see
:mod:`repro.sim.multicore`, which passes a shared L3 instance in.

The walk runs once per load/store, three lookups deep, so the class is
``__slots__``-ed and :meth:`access` returns a plain ``(hit_level,
latency_ns, writebacks)`` tuple without allocating a result object (the
write-back list is lazily allocated — the common case is none).
:meth:`read`/:meth:`write` wrap the same walk in a :class:`ReadOutcome`
for callers that prefer names; :meth:`read_ref`/:meth:`write_ref` keep the
original per-level implementation as the differential oracle and slow
benchmark leg.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from repro.common.config import CacheConfig, TimingConfig
from repro.common.stats import Stats
from repro.cache.sram import SetAssociativeCache

#: Shared empty write-back container returned by the fast walk when no
#: dirty line left the last level — callers only iterate it, never mutate.
_EMPTY_WB: Tuple[int, ...] = ()


class ReadOutcome(NamedTuple):
    """Result of driving one load or store through the hierarchy.

    Attributes
    ----------
    hit_level:
        1, 2 or 3 for an SRAM hit; ``None`` when the request must go to
        memory.
    latency_ns:
        Total SRAM lookup latency on the way to the hit (or to the miss
        determination). Memory latency is added by the caller because it
        depends on the memory controller's state.
    memory_writebacks:
        Line indices whose dirty copies were evicted from the last level
        and must now be written to NVM.
    """

    hit_level: Optional[int]
    latency_ns: float
    memory_writebacks: List[int]


class CacheHierarchy:
    """L1/L2/L3 stack for one core.

    Parameters
    ----------
    l1, l2, l3:
        Geometry of each level.
    timing:
        Converts per-level cycle latencies to nanoseconds.
    stats:
        Shared statistics registry (namespaces ``l1``/``l2``/``l3``).
    shared_l3:
        Optional pre-built L3 shared among cores; when given, ``l3`` config
        is ignored.
    name_prefix:
        Prepended to stat namespaces so per-core caches stay separable
        (e.g. ``"core0."``).
    """

    __slots__ = (
        "_timing",
        "_stats",
        "_vals",
        "l1",
        "l2",
        "l3",
        "_levels",
        "_latencies_ns",
        "_k_memory_writebacks",
        "_k_clwb",
        "_k_clwb_dirty",
        "_k_clflush",
    )

    def __init__(
        self,
        l1: CacheConfig,
        l2: CacheConfig,
        l3: CacheConfig,
        timing: TimingConfig,
        stats: Stats,
        shared_l3: Optional[SetAssociativeCache] = None,
        name_prefix: str = "",
    ):
        self._timing = timing
        self._stats = stats
        self._vals = stats.raw()
        self.l1 = SetAssociativeCache(l1, stats, f"{name_prefix}l1")
        self.l2 = SetAssociativeCache(l2, stats, f"{name_prefix}l2")
        # An explicit None check: SetAssociativeCache defines __len__, so an
        # empty shared L3 would be falsy under ``shared_l3 or ...``.
        self.l3 = (
            shared_l3
            if shared_l3 is not None
            else SetAssociativeCache(l3, stats, "l3")
        )
        self._levels = [self.l1, self.l2, self.l3]
        self._latencies_ns = [
            timing.cycles_to_ns(l1.latency_cycles),
            timing.cycles_to_ns(l2.latency_cycles),
            timing.cycles_to_ns(self.l3.config.latency_cycles),
        ]
        self._k_memory_writebacks = ("hierarchy", "memory_writebacks")
        self._k_clwb = ("hierarchy", "clwb")
        self._k_clwb_dirty = ("hierarchy", "clwb_dirty")
        self._k_clflush = ("hierarchy", "clflush")

    # ------------------------------------------------------------------
    # Loads and stores
    # ------------------------------------------------------------------

    def access(self, line: int, write: bool):
        """Drive one load/store; returns ``(hit_level, latency_ns, wbs)``.

        The flat fast path: identical walk order, fills, evictions, and
        statistics as :meth:`read_ref`/:meth:`write_ref`, but with level
        lists in locals, no outcome object, and the write-back list only
        allocated once a dirty line actually leaves L3.
        """
        levels = self._levels
        lats = self._latencies_ns
        latency = 0.0
        wb: Optional[List[int]] = None
        for depth in range(3):
            latency += lats[depth]
            hit, evicted = levels[depth].access(line, write and depth == 0)
            if evicted is not None and evicted.dirty:
                if wb is None:
                    wb = []
                self._push_down(depth, evicted.line, wb)
            if hit:
                for d in range(depth - 1, -1, -1):
                    ev = levels[d].fill(line, write and d == 0)
                    if ev is not None and ev.dirty:
                        if wb is None:
                            wb = []
                        self._push_down(d, ev.line, wb)
                return depth + 1, latency, (wb if wb is not None else _EMPTY_WB)
        # Missed everywhere: the access() calls above already filled each
        # level (miss-fill), so only the outcome remains to be reported.
        return None, latency, (wb if wb is not None else _EMPTY_WB)

    def read(self, line: int) -> ReadOutcome:
        """Drive a load; fill upper levels on lower-level hits."""
        hit_level, latency, wb = self.access(line, False)
        return ReadOutcome(hit_level, latency, list(wb))

    def write(self, line: int) -> ReadOutcome:
        """Drive a store (write-allocate; line becomes dirty in L1)."""
        hit_level, latency, wb = self.access(line, True)
        return ReadOutcome(hit_level, latency, list(wb))

    def read_ref(self, line: int) -> ReadOutcome:
        """Reference load path (unhoisted walk, per-level outcome)."""
        return self._access_ref(line, write=False)

    def write_ref(self, line: int) -> ReadOutcome:
        """Reference store path (unhoisted walk, per-level outcome)."""
        return self._access_ref(line, write=True)

    def _access_ref(self, line: int, write: bool) -> ReadOutcome:
        latency = 0.0
        writebacks: List[int] = []
        for depth, cache in enumerate(self._levels):
            latency += self._latencies_ns[depth]
            hit, evicted = cache.access_ref(line, write=(write and depth == 0))
            if evicted is not None:
                self._handle_eviction(depth, evicted, writebacks)
            if hit:
                self._fill_above(line, depth, write, writebacks)
                return ReadOutcome(
                    hit_level=depth + 1,
                    latency_ns=latency,
                    memory_writebacks=writebacks,
                )
        return ReadOutcome(hit_level=None, latency_ns=latency, memory_writebacks=writebacks)

    def _fill_above(
        self, line: int, hit_depth: int, write: bool, writebacks: List[int]
    ) -> None:
        """After a hit at ``hit_depth``, install the line in closer levels."""
        for depth in range(hit_depth - 1, -1, -1):
            evicted = self._levels[depth].fill(line, dirty=(write and depth == 0))
            if evicted is not None:
                self._handle_eviction(depth, evicted, writebacks)

    def _push_down(self, depth: int, victim: int, writebacks: List[int]) -> None:
        """Install a known-dirty victim one level down (or emit to memory)."""
        levels = self._levels
        while depth + 1 < 3:
            depth += 1
            inner = levels[depth].fill(victim, dirty=True)
            if inner is None or not inner.dirty:
                return
            victim = inner.line
        writebacks.append(victim)
        self._vals[self._k_memory_writebacks] += 1

    def _handle_eviction(self, depth: int, evicted, writebacks: List[int]) -> None:
        """Push a dirty victim down one level (or out to memory from L3)."""
        if not evicted.dirty:
            return
        if depth + 1 < len(self._levels):
            inner = self._levels[depth + 1].fill(evicted.line, dirty=True)
            if inner is not None:
                self._handle_eviction(depth + 1, inner, writebacks)
        else:
            writebacks.append(evicted.line)
            self._stats.inc("hierarchy", "memory_writebacks")

    # ------------------------------------------------------------------
    # Persistence instructions
    # ------------------------------------------------------------------

    def clwb(self, line: int) -> bool:
        """Write the line back toward memory, keeping it cached clean.

        Returns whether any level held a dirty copy — i.e. whether the
        memory controller must receive a write. (Flushing a clean or absent
        line is a no-op at the memory, exactly like hardware clwb.)
        """
        l1, l2, l3 = self._levels
        was_dirty = l1.clean(line)
        was_dirty = l2.clean(line) or was_dirty
        was_dirty = l3.clean(line) or was_dirty
        vals = self._vals
        vals[self._k_clwb] += 1
        if was_dirty:
            vals[self._k_clwb_dirty] += 1
        return was_dirty

    def clflush(self, line: int) -> bool:
        """Invalidate the line everywhere; returns whether it was dirty."""
        was_dirty = False
        for cache in self._levels:
            was_dirty |= cache.invalidate(line)
        self._vals[self._k_clflush] += 1
        return was_dirty

    def lose_all_volatile_state(self) -> List[int]:
        """Power failure: drop every level; return dirty lines that died."""
        lost: List[int] = []
        for cache in self._levels:
            lost.extend(cache.flush_all())
        return sorted(set(lost))

    @property
    def walk_latencies_ns(self) -> Tuple[float, float, float]:
        """SRAM latency of a walk that stops at L1, at L2 and at L3.

        Summed level by level from 0.0 exactly as :meth:`access` sums
        them, so a latency taken from here is bit-identical to the one a
        walk reports.
        """
        l1, l2, l3 = self._latencies_ns
        to_l1 = 0.0 + l1
        to_l2 = to_l1 + l2
        return to_l1, to_l2, to_l2 + l3

    @property
    def total_sram_latency_ns(self) -> float:
        """Latency of missing all the way through (L1+L2+L3 lookups)."""
        return sum(self._latencies_ns)
