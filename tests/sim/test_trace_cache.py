"""Tests for per-process trace memoization."""

import pytest

from repro.core.schemes import Scheme
from repro.sim import trace_cache
from repro.sim.simulator import simulate_workload
from repro.sim.trace_cache import cached_generate_trace
from repro.workloads.generator import generate_trace


@pytest.fixture(autouse=True)
def fresh_cache():
    trace_cache.configure(True)
    trace_cache.clear()
    yield
    trace_cache.configure(True)
    trace_cache.clear()


def test_same_key_returns_same_object():
    first = cached_generate_trace("array", n_ops=10, seed=3)
    second = cached_generate_trace("array", n_ops=10, seed=3)
    assert first is second
    assert trace_cache.cache_stats() == (1, 1)


def test_different_keys_miss():
    cached_generate_trace("array", n_ops=10, seed=3)
    cached_generate_trace("array", n_ops=10, seed=4)
    cached_generate_trace("array", n_ops=11, seed=3)
    cached_generate_trace("queue", n_ops=10, seed=3)
    assert trace_cache.cache_stats() == (0, 4)


def test_cached_trace_matches_uncached():
    cached = cached_generate_trace("btree", n_ops=20, request_size=256, seed=7)
    fresh = generate_trace("btree", n_ops=20, request_size=256, seed=7)
    assert cached.ops == fresh.ops
    assert cached.warmup_ops == fresh.warmup_ops


def test_disable_bypasses_and_clears():
    cached_generate_trace("array", n_ops=10, seed=3)
    trace_cache.configure(False)
    first = cached_generate_trace("array", n_ops=10, seed=3)
    second = cached_generate_trace("array", n_ops=10, seed=3)
    assert first is not second
    assert trace_cache.cache_stats() == (0, 0)


def test_lru_bound_evicts_oldest():
    for seed in range(trace_cache.MAX_ENTRIES + 5):
        cached_generate_trace("array", n_ops=5, seed=seed)
    # Oldest seeds were evicted: re-requesting seed 0 is a miss again.
    _, misses_before = trace_cache.cache_stats()
    cached_generate_trace("array", n_ops=5, seed=0)
    _, misses_after = trace_cache.cache_stats()
    assert misses_after == misses_before + 1


def test_clear_detaches_derived_data_from_live_references():
    # A caller still holding the trace must not resurrect invalidated
    # arrays/recordings through it after clear().
    trace = cached_generate_trace("array", n_ops=10, seed=3)
    trace_cache.trace_arrays(trace)
    trace_cache.store_trace_outcomes(trace, ("sig",), object())
    assert trace.replay_arrays is not None
    assert trace.replay_outcomes is not None
    trace_cache.clear()
    assert trace.replay_arrays is None
    assert trace.warmup_replay_arrays is None
    assert trace.replay_outcomes is None


def test_disabled_path_is_truly_uncached():
    # With memoization off, attached-array reuse is bypassed (fresh
    # decode per call, nothing attached) and recordings are neither
    # retained nor reused.
    trace = cached_generate_trace("array", n_ops=10, seed=3)
    trace_cache.configure(False)
    first = trace_cache.trace_arrays(trace)
    second = trace_cache.trace_arrays(trace)
    assert first is not second
    assert trace.replay_arrays is None
    trace_cache.store_trace_outcomes(trace, ("sig",), object())
    assert trace.replay_outcomes is None
    assert trace_cache.trace_outcomes(trace, ("sig",)) is None


def test_simulation_results_identical_with_and_without_cache():
    """The acceptance guarantee: memoization never changes a result."""

    def run_pair():
        return [
            simulate_workload("array", scheme, n_ops=15, request_size=256, seed=2)
            for scheme in (Scheme.WT_BASE, Scheme.SUPERMEM)
        ]

    trace_cache.configure(False)
    cold = run_pair()
    trace_cache.configure(True)
    trace_cache.clear()
    warm = run_pair()
    hits, _ = trace_cache.cache_stats()
    assert hits >= 1  # the second scheme replayed the memoized trace
    for a, b in zip(cold, warm):
        assert a.total_time_ns == b.total_time_ns
        assert a.txn_latencies == b.txn_latencies
        assert a.stats.snapshot() == b.stats.snapshot()


def _multicore_point(scheme):
    from repro.sim.multicore import simulate_multiprogrammed

    return simulate_multiprogrammed(
        "queue", scheme, n_programs=3, n_ops=4, request_size=256, seed=2
    )


def test_second_multicore_scheme_records_nothing(monkeypatch):
    """Every scheme after the first replays the cores' L1/L2 recordings."""
    from repro.sim import multicore

    calls = []
    record = multicore.record_private_levels

    def counting(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(multicore, "record_private_levels", counting)
    first = _multicore_point(Scheme.SUPERMEM)
    assert len(calls) == 3
    assert trace_cache.outcome_stats() == (0, 3)
    _multicore_point(Scheme.WT_CWC)
    assert len(calls) == 3
    assert trace_cache.outcome_stats() == (3, 3)
    # A replayed point is the recorded one, bit for bit.
    again = _multicore_point(Scheme.SUPERMEM)
    assert again.total_time_ns == first.total_time_ns
    assert again.txn_latencies == first.txn_latencies
    assert again.stats.snapshot() == first.stats.snapshot()


@pytest.mark.parametrize("drop", ["clear", "clear_outcomes"])
def test_clearing_drops_multicore_recordings(drop):
    _multicore_point(Scheme.SUPERMEM)
    traces = list(trace_cache._cache.values())
    assert all(trace.replay_outcomes for trace in traces)
    getattr(trace_cache, drop)()
    assert all(trace.replay_outcomes is None for trace in traces)
    assert trace_cache.outcome_stats() == (0, 0)
    _multicore_point(Scheme.SUPERMEM)
    assert trace_cache.outcome_stats() == (0, 3)
