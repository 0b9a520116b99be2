"""The no-op guarantee: tracing must never change a result.

Two directions:

* a run built with the disabled :data:`NULL_TRACER` (the default) is
  bit-identical — counters and ``total_time_ns`` — to a run built with no
  tracer argument at all;
* an *enabled* tracer observes but never perturbs: the traced run's
  timing and counters equal the untraced run's.

The same holds for an armed crash point that is never reached, and for
every evaluated scheme and fidelity, whether the run records its
hierarchy outcome stream or replays a recorded one.
"""

import pytest

from repro.core.schemes import EVALUATED_SCHEMES, Scheme
from repro.obs import NULL_TRACER, Tracer
from repro.sim.simulator import simulate_workload
from tests.obs.test_event_digests import (
    FIDELITIES,
    SAMPLE_NS,
    point_config,
    point_trace,
    run_point,
)

KWARGS = dict(
    n_ops=40, request_size=1024, footprint=1 << 20, seed=3
)


def _run(tracer=None):
    return simulate_workload("hashtable", Scheme.SUPERMEM, tracer=tracer, **KWARGS)


def test_disabled_tracer_is_bit_identical_to_no_tracer():
    baseline = _run()
    disabled = _run(tracer=NULL_TRACER)
    assert disabled.total_time_ns == baseline.total_time_ns
    assert disabled.txn_latencies == baseline.txn_latencies
    assert disabled.stats.snapshot() == baseline.stats.snapshot()


def test_enabled_tracer_does_not_perturb_results():
    baseline = _run()
    tracer = Tracer(sample_interval_ns=1000.0)
    traced = _run(tracer=tracer)
    assert traced.total_time_ns == baseline.total_time_ns
    assert traced.txn_latencies == baseline.txn_latencies
    assert traced.stats.snapshot() == baseline.stats.snapshot()
    assert len(tracer.events) > 0  # and it actually recorded


def test_tracer_event_totals_match_aggregate_counters():
    """The event stream and the Stats registry tell the same story."""
    tracer = Tracer()
    result = _run(tracer=tracer)
    appends = [
        e for e in tracer.events if e.name in ("data_append", "counter_append")
    ]
    coalesces = [e for e in tracer.events if e.name == "cwc_coalesce"]
    stalls = [e for e in tracer.events if e.name == "full_stall"]
    assert len(appends) == result.nvm_writes
    assert len(coalesces) == result.coalesced_counter_writes
    assert len(stalls) == result.stats.get("wq", "full_stalls")
    assert sum(e.dur for e in stalls) == result.wq_stall_ns
    assert tracer.histograms["txn_latency_ns"].n == result.n_txns


def _snapshot(result):
    return (
        result.total_time_ns,
        tuple(result.txn_latencies),
        tuple(sorted(result.stats.raw().items())),
    )


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("scheme", EVALUATED_SCHEMES, ids=lambda s: s.value)
def test_observation_never_perturbs_record_or_replay(scheme, fidelity):
    cfg = point_config(scheme, fidelity)
    trace = point_trace(cfg)
    recorded, sim = run_point(cfg, trace)
    want = _snapshot(recorded)
    pair = (
        cfg.encrypted
        and cfg.atomicity_register
        and sim.system.counter_cache.write_through
    )
    point = "after-pair-append" if pair else "after-data-append"
    for outcomes in (None, sim.recorded_outcomes):
        plain, _ = run_point(cfg, trace, outcomes=outcomes)
        traced, _ = run_point(
            cfg, trace, outcomes=outcomes, tracer=Tracer(sample_interval_ns=SAMPLE_NS)
        )
        armed, armed_sim = run_point(cfg, trace, outcomes=outcomes, arm=(point, 10**9))
        assert _snapshot(plain) == want
        assert _snapshot(traced) == want
        assert _snapshot(armed) == want
        # The armed point sat on the executed path the whole run.
        assert armed_sim.system.crash_ctl.occurrences(point) > 0
        assert not armed_sim.system.crash_ctl.fired
