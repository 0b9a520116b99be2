"""Host speed, measured by a fixed reference kernel run between points.

The benchmark runs on shared hosts whose speed drifts by tens of percent
within seconds and between minutes: on a shared 2-CPU virtual machine,
passes of one grid in one process differed by up to 55% in host time. A
25% regression gate on raw host time would then flag noise and miss real
changes. So every timed pass also runs this kernel for about 2% of the
time each point took, right after the point, and the host-time metrics
are scaled to a host that runs the kernel at :data:`NOMINAL_RATE`:
``scaled_time = raw_time * rate / NOMINAL_RATE``. Host contention slows
the kernel and the simulator alike, so the scaled figures move far less
than raw ones; a change to the simulator leaves the kernel as it was.

The kernel imitates the simulator's largest cost, a write-queue drain:
slotted entries appended to an insertion-ordered dict and an
earliest-start scan over per-bank free times. It shares no code with the
simulator. Changing the kernel or :data:`NOMINAL_RATE` re-bases every
host-time metric, so measure the parent commit again after doing so.
"""

from __future__ import annotations

from time import perf_counter

#: Kernel slices per second of the host the metrics are scaled to.
NOMINAL_RATE = 10000.0
#: Kernel time per second of simulation time.
SHARE = 0.02
_BANKS = 8
_DEPTH = 24
_APPENDS_PER_SLICE = 40


class _Entry:
    __slots__ = ("bank", "ready")

    def __init__(self, bank: int, ready: float):
        self.bank = bank
        self.ready = ready


class HostSpeed:
    """Accumulates kernel slices and the host time they took."""

    def __init__(self) -> None:
        self.slices = 0
        self.seconds = 0.0
        self._queue: dict = {}
        self._free = [0.0] * _BANKS
        self._seq = 0
        self._clock = 0.0
        self._rng = 1

    def _slice(self) -> None:
        queue = self._queue
        free = self._free
        rng = self._rng
        clock = self._clock
        for _ in range(_APPENDS_PER_SLICE):
            rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
            self._seq += 1
            queue[self._seq] = _Entry(rng % _BANKS, clock)
            clock += 10.0
            if len(queue) > _DEPTH:
                best, best_start = None, 0.0
                for seq, entry in queue.items():
                    start = free[entry.bank]
                    if start < entry.ready:
                        start = entry.ready
                    if best is None or start < best_start:
                        best, best_start = seq, start
                entry = queue.pop(best)
                free[entry.bank] = best_start + 150.0
                if best_start > clock:
                    clock = best_start
        self._rng = rng
        self._clock = clock

    def sample(self, elapsed: float) -> None:
        """Run the kernel for ``SHARE * elapsed`` seconds (one slice at
        least)."""
        budget = SHARE * elapsed
        spent = 0.0
        while True:
            t0 = perf_counter()
            self._slice()
            spent += perf_counter() - t0
            self.slices += 1
            if spent >= budget:
                break
        self.seconds += spent

    @property
    def factor(self) -> float:
        """Measured kernel rate over :data:`NOMINAL_RATE`: 1.0 on the
        nominal host, below 1.0 on a slower one."""
        return self.slices / self.seconds / NOMINAL_RATE
