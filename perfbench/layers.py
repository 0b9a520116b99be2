"""Per-layer host-time tracing, installed from outside the simulator.

The simulator has no spans of its own, so the traced run wraps the public
entry points of each layer (a module function or a class method) in a
timing shim and removes every shim afterwards. A span is one call of a
wrapped function; its *self* time is its duration minus the durations of
the wrapped calls made inside it, so the self times of all spans add up
to the time spent inside the outermost spans.

Class-level wrapping is used throughout: it is the only option for
``__slots__`` classes such as ``CacheHierarchy`` (no instance attributes)
and it reaches objects created while the shims are installed. Shims must
be installed before the simulator builds the objects it runs: the engine
loops bind methods such as ``system.persist_line_fast`` into locals at
loop entry.
"""

from __future__ import annotations

import functools
from time import perf_counter
from typing import Dict, Iterable, List, Tuple


def layer_of(span: str) -> str:
    """The layer a span belongs to: its name minus the last component."""
    return span.rsplit(".", 1)[0]


class LayerTracer:
    """Aggregated busy time, self time and call count per span name."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = {}
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        # One accumulator of child-span time per open span.
        self._stack: List[float] = []
        # (owner, attribute, original, owned) for every installed shim.
        self._installed: List[Tuple[object, str, object, bool]] = []

    # -- accounting -----------------------------------------------------

    def _register(self, span: str) -> None:
        self.busy.setdefault(span, 0.0)
        self.self_time.setdefault(span, 0.0)
        self.calls.setdefault(span, 0)

    def _close(self, span: str, elapsed: float) -> None:
        child = self._stack.pop()
        self.busy[span] += elapsed
        self.self_time[span] += elapsed - child
        self.calls[span] += 1
        if self._stack:
            self._stack[-1] += elapsed

    def timed(self, span: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        self._register(span)
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span, perf_counter() - t0)

    def _shim(self, fn, span: str):
        stack = self._stack
        close = self._close
        clock = perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(span, clock() - t0)

        return shim

    # -- installation ---------------------------------------------------

    def install(self, targets: Iterable[Tuple[object, str, str]]) -> None:
        """Wrap ``owner.attribute`` for every ``(owner, attribute, span)``."""
        for owner, attribute, span in targets:
            owned = attribute in vars(owner)
            original = vars(owner)[attribute] if owned else getattr(owner, attribute)
            if not callable(original):
                raise TypeError(f"{owner!r}.{attribute} is not a function")
            self._register(span)
            setattr(owner, attribute, self._shim(original, span))
            self._installed.append((owner, attribute, original, owned))

    def remove(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attribute, original, owned = self._installed.pop()
            if owned:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- read-out -------------------------------------------------------

    def layer_self(self) -> Dict[str, float]:
        """Self time summed per layer."""
        out: Dict[str, float] = {}
        for span, value in self.self_time.items():
            layer = layer_of(span)
            out[layer] = out.get(layer, 0.0) + value
        return out

    def total_self(self) -> float:
        return sum(self.self_time.values())


# ----------------------------------------------------------------------
# What the benchmark wraps
# ----------------------------------------------------------------------


def setup_targets():
    """Trace generation and decode, as the trace cache calls them."""
    from repro.sim import trace_cache

    return [
        (trace_cache, "generate_trace", "workloads.generate"),
        (trace_cache, "build_arrays", "sim.batch.decode"),
    ]


def timed_targets():
    """The entry points of every simulator layer, outermost first.

    Module functions are wrapped where their callers look them up: the
    runner imports the simulation kernels from their modules at call time.
    """
    from repro.cache.counter_cache import CounterCache
    from repro.cache.hierarchy import CacheHierarchy
    from repro.cache.tree_cache import TreeNodeCache
    from repro.core.system import SecureMemorySystem
    from repro.crypto.engine import AESPadEngine, PRFPadEngine
    from repro.crypto.integrity import MerkleCounterTree
    from repro.crypto.otp import LineCipher
    from repro.memory.bank import Bank
    from repro.memory.controller import MemoryController
    from repro.memory.nvm import NVMStore
    from repro.memory.write_queue import WriteQueue
    from repro.sim import multicore, simulator
    from repro.sim.engine import CoreEngine

    return [
        (simulator, "simulate_workload", "sim.simulator.simulate"),
        (multicore, "simulate_multiprogrammed", "sim.simulator.simulate"),
        (multicore.MulticoreSimulator, "run", "sim.multicore.run"),
        (CoreEngine, "run_batched_replay", "sim.engine.replay"),
        (CoreEngine, "run_batched_record", "sim.engine.record"),
        (CoreEngine, "run_batched", "sim.engine.batched"),
        (CoreEngine, "step", "sim.engine.step"),
        (CacheHierarchy, "access", "cache.hierarchy.walk"),
        (CacheHierarchy, "clwb", "cache.hierarchy.walk"),
        (SecureMemorySystem, "persist_line", "core.system.persist"),
        (SecureMemorySystem, "persist_line_fast", "core.system.persist_fast"),
        (SecureMemorySystem, "read_line", "core.system.read"),
        (SecureMemorySystem, "read_line_fast", "core.system.read_fast"),
        (SecureMemorySystem, "drain", "core.system.drain"),
        (SecureMemorySystem, "_tree_update", "crypto.tree.walk"),
        (SecureMemorySystem, "_tree_update_fast", "crypto.tree.walk"),
        (SecureMemorySystem, "_tree_verify", "crypto.tree.walk"),
        (SecureMemorySystem, "_tree_verify_fast", "crypto.tree.walk"),
        (CounterCache, "access", "cache.counter_cache.access"),
        (TreeNodeCache, "access", "cache.tree_cache.access"),
        (MemoryController, "_best_candidate", "memory.controller.schedule"),
        (MemoryController, "_issue", "memory.controller.issue"),
        (MemoryController, "append_write", "memory.controller.append"),
        (MemoryController, "append_write_fast", "memory.controller.append"),
        (MemoryController, "append_pair", "memory.controller.append"),
        (MemoryController, "append_pair_fast", "memory.controller.append"),
        (MemoryController, "read", "memory.controller.read"),
        (MemoryController, "read_fast", "memory.controller.read"),
        (MemoryController, "drain_all", "memory.controller.drain"),
        (WriteQueue, "append", "memory.write_queue.append"),
        (Bank, "service_read", "memory.bank.read"),
        (Bank, "service_write", "memory.bank.write"),
        (NVMStore, "write_line", "memory.nvm.write"),
        (LineCipher, "encrypt", "crypto.cipher"),
        (LineCipher, "decrypt", "crypto.cipher"),
        (PRFPadEngine, "pad", "crypto.pad"),
        (AESPadEngine, "pad", "crypto.pad"),
        (MerkleCounterTree, "update_leaf", "crypto.integrity.update"),
    ]
