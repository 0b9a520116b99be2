"""Metric catalogue and the arithmetic that fills it.

Every metric the benchmark prints is declared here with its unit, so the
catalogue, ``BENCHMARK.json`` and the printed result cannot drift apart
(``perfbench/tests`` checks all three). End-to-end metrics are host-side
and measured with tracing off. Per-layer metrics come from the traced run:
host times of the wrapped layer entry points (``*_s`` is the busy time of
the wrapped calls, ``*.self_s`` the layer's self time), and exact
simulated counts summed over a pass's ``SimResult.stats``. A change that
only speeds up the simulator must leave every simulated count identical.
"""

from __future__ import annotations

import re
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Tuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("sim_ops_per_s", "1/s"),
    ("point_ms_p50", "ms"),
    ("point_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Host time of single wrapped entry points: metric -> spans (busy time).
BUSY_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim.engine.replay_s", ("sim.engine.replay",)),
    ("sim.engine.record_s", ("sim.engine.record",)),
    ("sim.engine.step_s", ("sim.engine.step",)),
    ("cache.hierarchy.walk_s", ("cache.hierarchy.walk",)),
    ("core.system.persist_s", ("core.system.persist",)),
    ("core.system.persist_fast_s", ("core.system.persist_fast",)),
    ("core.system.read_s", ("core.system.read",)),
    ("core.system.read_fast_s", ("core.system.read_fast",)),
    ("crypto.tree.walk_s", ("crypto.tree.walk",)),
    ("cache.counter_cache.access_s", ("cache.counter_cache.access",)),
    ("cache.tree_cache.access_s", ("cache.tree_cache.access",)),
    ("memory.controller.schedule_s", ("memory.controller.schedule",)),
    ("memory.controller.issue_s", ("memory.controller.issue",)),
    ("memory.controller.append_s", ("memory.controller.append",)),
    ("memory.controller.read_s", ("memory.controller.read",)),
    ("memory.controller.drain_s", ("memory.controller.drain",)),
    ("memory.write_queue.append_s", ("memory.write_queue.append",)),
    ("memory.bank.service_s", ("memory.bank.read", "memory.bank.write")),
    ("memory.nvm.write_s", ("memory.nvm.write",)),
    ("crypto.pad_s", ("crypto.pad",)),
    ("crypto.cipher_s", ("crypto.cipher",)),
    ("crypto.integrity.update_s", ("crypto.integrity.update",)),
    ("workloads.generate_s", ("workloads.generate",)),
    ("sim.batch.decode_s", ("sim.batch.decode",)),
)

#: Call counts of wrapped entry points: metric -> span.
CALL_METRICS: Tuple[Tuple[str, str], ...] = (
    ("sim.engine.step_calls", "sim.engine.step"),
    ("cache.hierarchy.calls", "cache.hierarchy.walk"),
    ("core.system.persist_calls", "core.system.persist"),
    ("core.system.persist_fast_calls", "core.system.persist_fast"),
    ("core.system.read_calls", "core.system.read"),
    ("core.system.read_fast_calls", "core.system.read_fast"),
    ("crypto.tree.walk_calls", "crypto.tree.walk"),
    ("memory.controller.schedule_calls", "memory.controller.schedule"),
    ("memory.controller.issue_calls", "memory.controller.issue"),
    ("memory.bank.reads", "memory.bank.read"),
    ("memory.bank.writes", "memory.bank.write"),
)

#: Layer self time: metric -> layer (see ``layers.layer_of``).
SELF_METRICS: Tuple[Tuple[str, str], ...] = (
    ("experiments.runner.overhead_s", "experiments.runner"),
    ("sim.simulator.self_s", "sim.simulator"),
    ("sim.multicore.self_s", "sim.multicore"),
    ("sim.engine.self_s", "sim.engine"),
    ("core.system.self_s", "core.system"),
    ("memory.controller.self_s", "memory.controller"),
)

TRACE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("trace.overhead", "x"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_frac", "ratio"),
    ("memory.controller.sched_per_issue", "ratio"),
)

COUNT_METRICS: Tuple[Tuple[str, str], ...] = (
    ("memory.write_queue.appends", "count"),
    ("memory.write_queue.cwc_coalesce_ratio", "ratio"),
    ("memory.write_queue.full_stalls", "count"),
    ("memory.write_queue.stall_ns", "ns"),
    ("memory.write_queue.read_forwards", "count"),
    ("cache.counter_cache.hit_rate", "ratio"),
    ("cache.counter_cache.read_hit_rate", "ratio"),
    ("memory.bank.row_hit_rate", "ratio"),
    ("memory.bank.busy_ns", "ns"),
    ("crypto.tree.coalesced_ratio", "ratio"),
    ("cache.tree_cache.hit_rate", "ratio"),
    ("cache.hierarchy.l3_miss_rate", "ratio"),
    ("sim.trace_cache.outcome_reuse", "ratio"),
    ("sim.total_time_ns", "ns"),
    ("sim.ops", "count"),
    ("sim.points", "count"),
)

PER_LAYER: Tuple[Tuple[str, str], ...] = (
    TRACE_METRICS
    + tuple((name, "s") for name, _ in SELF_METRICS)
    + tuple((name, "s") for name, _ in BUSY_METRICS)
    + tuple((name, "count") for name, _ in CALL_METRICS)
    + COUNT_METRICS
)

# ----------------------------------------------------------------------
# Statistics helpers
# ----------------------------------------------------------------------


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive linear interpolation)."""
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten of ``count``
    samples beyond it."""
    if count < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {count}")
    return (100 * (count - 10)) // count


def beyond(count: int, pct: int) -> float:
    """How many of ``count`` samples lie beyond the ``pct``-th percentile."""
    return count * (100 - pct) / 100


def median_of(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-key median of several metric dicts with the same keys."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ----------------------------------------------------------------------
# Simulated counts
# ----------------------------------------------------------------------


def sim_totals(results: Iterable) -> Dict[Tuple[str, str], float]:
    """Every statistics counter summed over a pass's results, per-bank
    namespaces folded into ``bank``; summed in point order, so equal
    results give bit-equal totals."""
    totals: Dict[Tuple[str, str], float] = defaultdict(float)
    for result in results:
        if result is None:
            continue
        for (namespace, counter), value in result.stats.raw().items():
            if namespace.startswith("bank."):
                namespace = "bank"
            totals[(namespace, counter)] += value
        totals[("sim", "total_time_ns")] += result.total_time_ns
    return {key: value for key, value in totals.items() if value}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(
    totals: Dict[Tuple[str, str], float],
    outcomes: Tuple[int, int],
    ops: int,
    points: int,
) -> Dict[str, float]:
    t = lambda namespace, counter: totals.get((namespace, counter), 0.0)  # noqa: E731
    row_hits = t("bank", "row_hits")
    return {
        "memory.write_queue.appends": t("wq", "appends"),
        "memory.write_queue.cwc_coalesce_ratio": _ratio(
            t("wq", "cwc_coalesced"), t("wq", "counter_appends")
        ),
        "memory.write_queue.full_stalls": t("wq", "full_stalls"),
        "memory.write_queue.stall_ns": t("wq", "stall_ns"),
        "memory.write_queue.read_forwards": t("wq", "read_forwards"),
        "cache.counter_cache.hit_rate": _ratio(t("cc", "hits"), t("cc", "accesses")),
        "cache.counter_cache.read_hit_rate": _ratio(
            t("cc", "read_hits"), t("cc", "read_accesses")
        ),
        "memory.bank.row_hit_rate": _ratio(
            row_hits, row_hits + t("bank", "row_misses")
        ),
        "memory.bank.busy_ns": t("bank", "busy_ns"),
        # Update walks that stopped at a dirty ancestor, per update walk
        # (one walk per MAC'd persist).
        "crypto.tree.coalesced_ratio": _ratio(
            t("it", "coalesced_updates"), t("it", "mac_writes")
        ),
        "cache.tree_cache.hit_rate": _ratio(t("it", "hits"), t("it", "accesses")),
        "cache.hierarchy.l3_miss_rate": _ratio(t("l3", "misses"), t("l3", "accesses")),
        "sim.trace_cache.outcome_reuse": _ratio(outcomes[0], outcomes[1]),
        "sim.total_time_ns": t("sim", "total_time_ns"),
        "sim.ops": float(ops),
        "sim.points": float(points),
    }


# ----------------------------------------------------------------------
# Host time per layer
# ----------------------------------------------------------------------


def layer_metrics(
    tracer, setup_tracer, wall: float, plain_wall: float
) -> Dict[str, float]:
    """Host-time metrics of one traced pass.

    ``tracer`` holds the timed phase's spans, ``setup_tracer`` those of the
    traced set-up; ``wall`` is the traced timed phase, ``plain_wall`` the
    untraced one of the same grid.
    """
    busy = {**setup_tracer.busy, **tracer.busy}
    calls = tracer.calls
    layer_self = tracer.layer_self()
    out = {
        "trace.overhead": wall / plain_wall,
        "trace.wall_s": wall,
        "trace.self_sum_frac": tracer.total_self() / wall,
        "memory.controller.sched_per_issue": _ratio(
            calls.get("memory.controller.schedule", 0),
            calls.get("memory.controller.issue", 0),
        ),
    }
    for name, layer in SELF_METRICS:
        out[name] = layer_self.get(layer, 0.0)
    for name, spans in BUSY_METRICS:
        out[name] = sum(busy.get(span, 0.0) for span in spans)
    for name, span in CALL_METRICS:
        out[name] = float(calls.get(span, 0))
    return out


def format_metrics(values: Dict[str, float], names: Iterable[Tuple[str, str]]):
    """``{"name": {"value": v, "unit": u}}`` in catalogue order."""
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def describe(
    name: str, value: float, unit: str, note: Optional[str] = None
) -> str:
    line = f"{name:<40} {value:>16.6g} {unit}"
    return f"{line}  ({note})" if note else line
