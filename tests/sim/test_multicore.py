"""Tests for the multi-programmed simulator."""

import dataclasses

import pytest

from repro.common.config import CacheConfig, MemoryConfig, SimConfig
from repro.common.errors import ConfigError
from repro.core.schemes import Scheme, scheme_config
from repro.experiments.common import experiment_base_config, get_scale
from repro.obs.tracer import Tracer
from repro.sim.batch import PV_CLWB_DIRTY
from repro.sim.engine import record_private_levels
from repro.sim.trace_cache import trace_arrays
from repro.sim.multicore import MulticoreSimulator, simulate_multiprogrammed
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
)
from repro.workloads.generator import generate_trace


def make_cfg():
    return dataclasses.replace(
        scheme_config(Scheme.UNSEC, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
    )


def test_interleaves_by_local_time():
    sim = MulticoreSimulator(make_cfg(), n_cores=2)
    # Core 0: one long compute; core 1: several short ones.
    traces = [
        [(OP_COMPUTE, 1000.0)],
        [(OP_COMPUTE, 10.0)] * 5,
    ]
    result = sim.run(traces)
    assert sim.engines[0].clock == 1000.0
    assert sim.engines[1].clock == 50.0
    assert result.total_time_ns >= 1000.0


def test_equal_clocks_step_in_core_index_order():
    # The scalar path is the one that calls step once per op.
    cfg = dataclasses.replace(make_cfg(), batched_replay=False)
    sim = MulticoreSimulator(cfg, n_cores=3)
    order = []

    def logged(engine):
        step = engine.step

        def wrapper(op):
            order.append(engine.core_id)
            step(op)

        return wrapper

    for engine in sim.engines:
        engine.step = logged(engine)
    # Core 2 runs out first; cores 0 and 1 tie at every clock.
    tick = (OP_COMPUTE, 10.0)
    sim.run([[tick] * 3, [tick] * 3, [tick]])
    assert order == [0, 1, 2, 0, 1, 0, 1]


def test_equal_clocks_replay_in_core_index_order():
    """The recorded-L1/L2 path keeps the per-op pick order: each tick
    opens with a transaction, whose trace event names the core."""
    tracer = Tracer()
    sim = MulticoreSimulator(make_cfg(), n_cores=3, tracer=tracer)
    tick = [(OP_TXN_BEGIN, 1), (OP_TXN_END, 1), (OP_COMPUTE, 10.0)]
    sim.run([tick * 3, tick * 3, tick])
    order = [event.args["core"] for event in tracer.events if event.name == "txn"]
    assert order == [0, 1, 2, 0, 1, 0, 1]


def test_txn_latencies_merged_across_cores():
    sim = MulticoreSimulator(make_cfg(), n_cores=2)
    trace = [(OP_TXN_BEGIN, 1), (OP_COMPUTE, 100.0), (OP_TXN_END, 1)]
    result = sim.run([list(trace), list(trace)])
    assert result.n_txns == 2


def test_trace_count_must_match_cores():
    sim = MulticoreSimulator(make_cfg(), n_cores=2)
    with pytest.raises(ConfigError):
        sim.run([[]])


def test_zero_cores_rejected():
    with pytest.raises(ConfigError):
        MulticoreSimulator(make_cfg(), n_cores=0)


def test_more_programs_increase_pressure():
    """Shared banks: 4 programs see higher per-txn latency than 1."""
    one = simulate_multiprogrammed(
        "queue", Scheme.SUPERMEM, n_programs=1, n_ops=40, request_size=1024, seed=1
    )
    four = simulate_multiprogrammed(
        "queue", Scheme.SUPERMEM, n_programs=4, n_ops=40, request_size=1024, seed=1
    )
    assert four.avg_txn_latency_ns > one.avg_txn_latency_ns


def test_heterogeneous_mix():
    """A list of workload names runs one program per core."""
    result = simulate_multiprogrammed(
        ["queue", "array", "hashtable"],
        Scheme.SUPERMEM,
        n_ops=10,
        request_size=256,
        seed=1,
    )
    assert result.n_txns == 30


def test_heterogeneous_mix_count_mismatch_rejected():
    with pytest.raises(ConfigError):
        simulate_multiprogrammed(
            ["queue", "array"], Scheme.SUPERMEM, n_programs=3, n_ops=5
        )


def test_single_name_requires_count():
    with pytest.raises(ConfigError):
        simulate_multiprogrammed("queue", Scheme.SUPERMEM, n_ops=5)


def test_programs_live_in_disjoint_regions():
    """Each program's heap must sit in its own slice of physical space."""
    from repro.workloads.generator import generate_trace
    from repro.txn.persist import OP_CLWB

    region = (64 << 20) // 4
    line_sets = []
    for program in range(2):
        trace = generate_trace(
            "queue",
            n_ops=5,
            request_size=256,
            footprint=64 << 10,
            heap_base=program * region,
            heap_capacity=region,
            seed=1,
        )
        line_sets.append({op[1] for op in trace.ops if op[0] == OP_CLWB})
    assert not (line_sets[0] & line_sets[1])


#: One-line L1, two-line L2 and a shared L3 of two 12-line sets: a 1 KB
#: request (16 stores, then 16 clwbs) pushes dirty lines through every
#: level, and L3 fills and accesses keep meeting in the same set, so the
#: order of the L3 steps shows in the results.
TINY_CACHES = dict(
    l1=CacheConfig(size=64, assoc=1, latency_cycles=4),
    l2=CacheConfig(size=128, assoc=2, latency_cycles=12),
    l3=CacheConfig(size=1536, assoc=12, latency_cycles=40),
)


def _tiny_run(n_cores, fidelity, **switches):
    base = dataclasses.replace(
        experiment_base_config(get_scale("smoke")), **TINY_CACHES, **switches
    )
    cfg = dataclasses.replace(
        scheme_config(Scheme.SUPERMEM, base), fidelity=fidelity
    )
    amap = cfg.address_map()
    region = amap.capacity // n_cores
    traces = [
        generate_trace(
            "btree",
            n_ops=6,
            request_size=1024,
            footprint=min(amap.bank_size, region // 4),
            heap_base=core * region,
            heap_capacity=region,
            seed=1 + core,
            track_payloads=cfg.functional,
        )
        for core in range(n_cores)
    ]
    return MulticoreSimulator(cfg, n_cores=n_cores).run(traces), traces, cfg


@pytest.mark.parametrize("fidelity", ["timing", "full"])
@pytest.mark.parametrize("n_cores", [2, 4])
def test_tiny_shared_l3_replay_matches_step_and_reference(n_cores, fidelity):
    """The recorded-L1/L2 path walks the shared L3 exactly as a full walk.

    The tiny geometry reaches the shared-L3 cases the Figure 14 goldens
    never do: L3 hits, dirty L2 victims installed in L3, dirty L3
    evictions to memory, and clwbs whose only dirty copy is in L3.
    """
    replay, traces, cfg = _tiny_run(n_cores, fidelity)
    step, _, _ = _tiny_run(n_cores, fidelity, batched_replay=False)
    ref, _, _ = _tiny_run(n_cores, fidelity, hot_path=False)
    for other in (step, ref):
        assert replay.total_time_ns == other.total_time_ns
        assert replay.txn_latencies == other.txn_latencies
        assert replay.stats.snapshot() == other.stats.snapshot()

    stats = replay.stats.snapshot()
    assert stats[("l3", "hits")] > 0
    assert sum(stats[(f"core{c}.l2", "dirty_evictions")] for c in range(n_cores)) > 0
    assert stats[("l3", "dirty_evictions")] > 0
    assert stats[("hierarchy", "memory_writebacks")] > 0
    private_dirty = sum(
        record_private_levels(trace_arrays(trace), cfg.l1, cfg.l2).codes.count(
            PV_CLWB_DIRTY
        )
        for trace in traces
    )
    assert stats[("hierarchy", "clwb_dirty")] > private_dirty


def test_clwb_cleans_a_stale_shared_l3_copy():
    """A clwb with a dirty private copy also cleans an older dirty copy in
    L3, so that copy later leaves L3 without a second write-back."""
    base = dataclasses.replace(make_cfg(), **TINY_CACHES)
    line = 0
    # Line 0 is stored, pushed dirty down to L3 by two more stores, then
    # stored again (an L3 hit) and flushed; 30 loads to its L3 set evict it.
    ops = [(OP_STORE, line), (OP_STORE, 2), (OP_STORE, 4), (OP_STORE, 6)]
    ops += [(OP_STORE, line), (OP_CLWB, line)]
    ops += [(OP_LOAD, 8 + 2 * i) for i in range(30)]
    results = [
        MulticoreSimulator(dataclasses.replace(base, **switches), n_cores=2).run(
            [list(ops), []]
        )
        for switches in ({}, {"batched_replay": False}, {"hot_path": False})
    ]
    for other in results[1:]:
        assert results[0].total_time_ns == other.total_time_ns
        assert results[0].stats.snapshot() == other.stats.snapshot()
    stats = results[0].stats.snapshot()
    assert stats[("l3", "hits")] >= 1
    assert stats[("hierarchy", "clwb_dirty")] == 1
    # Lines 2, 4 and 6 were never flushed: only they leave L3 dirty.
    assert stats[("hierarchy", "memory_writebacks")] == 3
