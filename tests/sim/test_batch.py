"""Batched trace replay: bit-identity with the scalar hot path.

``SimConfig.batched_replay`` routes production runs through flat op
arrays (:mod:`repro.sim.batch`), one replay loop
(:meth:`~repro.sim.engine.CoreEngine.run_batched`), and — within a
sweep — recorded hierarchy outcome streams that skip the scheme-
independent CPU cache walk entirely. None of that may change a single
simulated number: these tests differential-compare the batched path
against the scalar reference (``batched_replay=False``) on total time,
every transaction latency, and every stats counter, across schemes,
fidelities, record-vs-replay modes, and traces fed to the engine in
chunks (one op per call up to the whole trace in one).
"""

import dataclasses

import pytest

from repro.common.config import SimConfig
from repro.common.errors import SimulationError
from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.sim import trace_cache
from repro.sim.batch import OutcomeSegment, ReplayOutcomes, build_arrays
from repro.sim.simulator import Simulator, simulate_workload
from repro.txn.persist import OP_CLWB, OP_FENCE, OP_STORE
from repro.workloads.generator import generate_trace

SCALAR = dataclasses.replace(SimConfig(), hot_path=True, batched_replay=False)
BATCHED = dataclasses.replace(SimConfig(), hot_path=True, batched_replay=True)


def _snapshot(result):
    return (
        result.total_time_ns,
        tuple(result.txn_latencies),
        tuple(sorted(result.stats.raw().items())),
    )


def _point(base, workload, scheme, fidelity="timing", **kw):
    kw.setdefault("n_ops", 60)
    kw.setdefault("request_size", 1024)
    kw.setdefault("footprint", 1 << 18)
    kw.setdefault("seed", 3)
    kw.setdefault("warmup_ops", 8)
    return simulate_workload(
        workload, scheme, base_config=base, fidelity=fidelity, **kw
    )


@pytest.fixture(autouse=True)
def _fresh_cache():
    trace_cache.clear()
    yield
    trace_cache.clear()


class TestBuildArrays:
    def test_decodes_kinds_args_payloads(self):
        ops = [(OP_STORE, 7), (OP_CLWB, 7, b"x" * 64), (OP_FENCE,)]
        arrays = build_arrays(ops)
        assert arrays.n == 3
        assert list(arrays.kinds) == [OP_STORE, OP_CLWB, OP_FENCE]
        assert arrays.args[0] == 7 and arrays.args[2] == 0
        assert arrays.payloads[1] == b"x" * 64

    def test_timing_trace_has_no_payload_list(self):
        arrays = build_arrays([(OP_STORE, 1), (OP_CLWB, 1), (OP_FENCE,)])
        assert arrays.payloads is None

    def test_unknown_opcode_rejected(self):
        with pytest.raises(SimulationError):
            build_arrays([(99, 0)])
        with pytest.raises(SimulationError):
            build_arrays([("store", 0)])


class TestBitIdentity:
    @pytest.mark.parametrize("scheme", EVALUATED_SCHEMES)
    def test_schemes_timing(self, scheme):
        # Fresh cache per scheme: each run exercises recording mode.
        scalar = _point(SCALAR, "btree", scheme)
        batched = _point(BATCHED, "btree", scheme)
        assert _snapshot(scalar) == _snapshot(batched)

    @pytest.mark.parametrize("workload", ["array", "queue", "hashtable"])
    def test_workloads_full_fidelity(self, workload):
        scheme = Scheme.SUPERMEM
        scalar = _point(SCALAR, workload, scheme, fidelity="full")
        batched = _point(BATCHED, workload, scheme, fidelity="full")
        assert _snapshot(scalar) == _snapshot(batched)

    def test_sweep_replays_recorded_outcomes(self):
        # Six schemes over one cached trace: one recording, five replays,
        # all bit-identical to the scalar reference.
        for scheme in EVALUATED_SCHEMES:
            scalar = _point(SCALAR, "rbtree", scheme)
            batched = _point(BATCHED, "rbtree", scheme)
            assert _snapshot(scalar) == _snapshot(batched), scheme
        hits, misses = trace_cache.outcome_stats()
        assert (hits, misses) == (len(EVALUATED_SCHEMES) - 1, 1)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 100000])
    def test_chunk_sizes(self, chunk):
        # The engine carries its clock and open transaction from one
        # run_batched call to the next (warmup then measured run rely on
        # it): feeding the trace as consecutive chunks, from one op per
        # call up to one call for the whole trace, must reproduce the
        # scalar numbers exactly.
        trace = generate_trace("queue", n_ops=40, request_size=1024,
                               footprint=1 << 18, seed=5)
        ref = Simulator(SCALAR)
        expected = _snapshot(ref.run(trace.ops))

        sim = Simulator(BATCHED)
        for start in range(0, len(trace.ops), chunk):
            sim.engine.run_batched(build_arrays(trace.ops[start:start + chunk]))
        drain = sim.system.drain()
        total = max(sim.engine.clock, drain)
        got = (total, tuple(sim.engine.txn_latencies),
               tuple(sorted(sim.stats.raw().items())))
        assert got == expected


class TestOutcomeReplayGuards:
    def test_mismatched_recording_rejected(self):
        trace = generate_trace("array", n_ops=20, request_size=256,
                               footprint=1 << 18, seed=2)
        arrays = build_arrays(trace.ops)
        bogus = ReplayOutcomes(
            OutcomeSegment(b"\x00" * (arrays.n - 1), [0.0] * (arrays.n - 1), {}),
            None,
            (),
        )
        with pytest.raises(SimulationError):
            Simulator(BATCHED).run(trace.ops, arrays=arrays, outcomes=bogus)

    def test_segment_length_checked_by_engine(self):
        trace = generate_trace("array", n_ops=10, request_size=256,
                               footprint=1 << 18, seed=2)
        arrays = build_arrays(trace.ops)
        short = OutcomeSegment(b"\x00", [0.0], {})
        with pytest.raises(SimulationError):
            Simulator(BATCHED).engine.run_batched_replay(arrays, short)

    @pytest.mark.parametrize("entry", ["run", "run_batched_record", "run_batched_replay"])
    def test_crashed_system_refuses_every_loop(self, entry):
        trace = generate_trace("array", n_ops=10, request_size=256,
                               footprint=1 << 18, seed=2)
        arrays = build_arrays(trace.ops)
        recorder = Simulator(BATCHED)
        recorder.run(trace.ops, arrays=arrays, record_outcomes=True)
        sim = Simulator(BATCHED)
        sim.system.crash()
        call = {
            "run": lambda: sim.engine.run(trace.ops),
            "run_batched_record": lambda: sim.engine.run_batched_record(arrays),
            "run_batched_replay": lambda: sim.engine.run_batched_replay(
                arrays, recorder.recorded_outcomes.main
            ),
        }[entry]
        with pytest.raises(SimulationError, match="used after crash"):
            call()


class TestCacheCounters:
    def test_array_and_outcome_stats_count(self):
        kw = dict(n_ops=20, request_size=256, footprint=1 << 18, seed=1)
        _point(BATCHED, "array", Scheme.UNSEC, warmup_ops=0, **kw)
        assert trace_cache.array_stats() == (0, 1)
        assert trace_cache.outcome_stats() == (0, 1)
        _point(BATCHED, "array", Scheme.SUPERMEM, warmup_ops=0, **kw)
        assert trace_cache.array_stats() == (1, 1)
        assert trace_cache.outcome_stats() == (1, 1)

    def test_clear_outcomes_keeps_arrays(self):
        kw = dict(n_ops=20, request_size=256, footprint=1 << 18, seed=1)
        _point(BATCHED, "array", Scheme.UNSEC, warmup_ops=0, **kw)
        trace_cache.clear_outcomes()
        assert trace_cache.outcome_stats() == (0, 0)
        _point(BATCHED, "array", Scheme.UNSEC, warmup_ops=0, **kw)
        # Arrays survived (hit); the outcome stream had to be re-recorded.
        assert trace_cache.array_stats()[0] >= 1
        assert trace_cache.outcome_stats() == (0, 1)

    def test_scalar_config_bypasses_batch_caches(self):
        _point(SCALAR, "array", Scheme.UNSEC, n_ops=20, request_size=256,
               footprint=1 << 18, seed=1, warmup_ops=0)
        assert trace_cache.array_stats() == (0, 0)
        assert trace_cache.outcome_stats() == (0, 0)
