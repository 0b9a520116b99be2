"""Tests for the per-core replay engine."""

import dataclasses

import pytest

from repro.common.config import MemoryConfig, SimConfig
from repro.common.errors import SimulationError
from repro.common.stats import Stats
from repro.core.schemes import Scheme, scheme_config
from repro.core.system import SecureMemorySystem
from repro.sim.engine import CoreEngine
from repro.txn.persist import (
    OP_CLWB,
    OP_COMPUTE,
    OP_FENCE,
    OP_LOAD,
    OP_STORE,
    OP_TXN_BEGIN,
    OP_TXN_END,
)


def make_engine(scheme=Scheme.UNSEC):
    cfg = dataclasses.replace(
        scheme_config(scheme, SimConfig(memory=MemoryConfig(capacity=8 << 20))),
        fidelity="timing",
    )
    stats = Stats()
    system = SecureMemorySystem(cfg, stats=stats)
    return CoreEngine(0, cfg, system, stats), stats


def test_compute_advances_clock():
    engine, _ = make_engine()
    engine.step((OP_COMPUTE, 100.0))
    assert engine.clock == 100.0


def test_load_miss_costs_memory_latency():
    engine, _ = make_engine()
    engine.step((OP_LOAD, 0))
    miss_clock = engine.clock
    assert miss_clock > 60  # at least one PCM read (63 ns)
    engine.step((OP_LOAD, 0))
    assert engine.clock - miss_clock < 5  # L1 hit


def test_store_then_clwb_persists():
    engine, stats = make_engine()
    engine.step((OP_STORE, 0))
    engine.step((OP_CLWB, 0, None))
    assert stats.get("wq", "appends") == 1


def test_clwb_of_clean_line_is_free_at_memory():
    engine, stats = make_engine()
    engine.step((OP_LOAD, 0))
    engine.step((OP_CLWB, 0, None))
    assert stats.get("wq", "appends") == 0


def test_fence_advances_clock():
    engine, _ = make_engine()
    before = engine.clock
    engine.step((OP_FENCE,))
    assert engine.clock > before


def test_txn_latency_measured():
    engine, _ = make_engine()
    engine.step((OP_TXN_BEGIN, 1))
    engine.step((OP_COMPUTE, 500.0))
    engine.step((OP_TXN_END, 1))
    assert engine.txn_latencies == [500.0]


def test_warmup_not_measured():
    engine, _ = make_engine()
    engine.set_measuring(False)
    engine.step((OP_TXN_BEGIN, 1))
    engine.step((OP_TXN_END, 1))
    engine.set_measuring(True)
    engine.step((OP_TXN_BEGIN, 2))
    engine.step((OP_TXN_END, 2))
    assert len(engine.txn_latencies) == 1


def test_unknown_op_rejected():
    engine, _ = make_engine()
    with pytest.raises(SimulationError):
        engine.step((99, 0))


def test_encrypted_store_produces_counter_write():
    engine, stats = make_engine(Scheme.WT_BASE)
    engine.step((OP_STORE, 0))
    engine.step((OP_CLWB, 0, None))
    assert stats.get("wq", "data_appends") == 1
    assert stats.get("wq", "counter_appends") == 1
