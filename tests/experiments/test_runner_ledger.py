"""One attempt ledger behind every executor of the sweep runner.

The in-process loop (``jobs=1``), the worker pool (``jobs>1``) and the
pool's serial fallback record attempts through the same code, so a
misconfigured spec, a transient fault and a persistent fault are
counted, retried and failed alike at any job count — except where the
executors differ by design: a pool worker's crash is a ``worker_died``
attempt, and the fallback adds one in-process attempt after the pool's
budget is spent.
"""

import dataclasses

import pytest

from repro.common.errors import ConfigError
from repro.core.schemes import Scheme
from repro.experiments import runner
from repro.experiments.common import experiment_base_config, get_scale
from repro.experiments.faults import FAULT_CORRUPT, FAULT_CRASH, FaultPlan, PointFault
from repro.experiments.runner import PointSpec, RunnerPolicy, run_points_report
from repro.obs.metrics import MetricsRegistry, snapshot_value
from repro.sim.validation import ValidationError

FAST = RunnerPolicy(max_attempts=3, backoff_s=0.0)

OUTCOMES = ("ok", "error", "timeout", "worker_died", "corrupt")


def _specs(n=4, n_ops=5):
    base = experiment_base_config(get_scale("smoke"))
    return [
        PointSpec(
            workload=workload,
            scheme=scheme,
            n_ops=n_ops,
            request_size=256,
            footprint=1 << 20,
            base_config=base,
            seed=1,
        )
        for workload in ("array", "queue")
        for scheme in (Scheme.UNSEC, Scheme.SUPERMEM)
    ][:n]


def _accounting(jobs, faults):
    results, report = run_points_report(
        _specs(), jobs=jobs, policy=FAST, faults=faults, metrics=MetricsRegistry()
    )
    attempts = {
        outcome: snapshot_value(
            report.metrics, "repro_sweep_attempts_total", (outcome,)
        )
        or 0
        for outcome in OUTCOMES
    }
    return results, report, attempts


@pytest.mark.parametrize("jobs", [1, 2])
def test_config_error_is_raised_at_any_jobs(jobs):
    specs = _specs()
    specs[1] = dataclasses.replace(specs[1], kernel="bogus")
    with pytest.raises(ConfigError, match="unknown point kernel 'bogus'"):
        run_points_report(specs, jobs=jobs, policy=FAST, faults=FaultPlan({}))


def test_transient_corrupt_is_accounted_alike():
    faults = FaultPlan({1: PointFault(FAULT_CORRUPT)})
    _, serial, serial_attempts = _accounting(1, faults)
    _, pool, pool_attempts = _accounting(2, faults)
    for report in (serial, pool):
        assert report.retries == 1
        assert report.serial_fallbacks == 0
        assert not report.failures
        assert report.point_wall_s.n == 4
    assert serial_attempts == pool_attempts
    assert serial_attempts["corrupt"] == 1 and serial_attempts["ok"] == 4


def test_persistent_crash_is_accounted_alike():
    faults = FaultPlan({1: PointFault(FAULT_CRASH, times=99)})
    serial_results, serial, serial_attempts = _accounting(1, faults)
    pool_results, pool, pool_attempts = _accounting(2, faults)
    assert serial.retries == pool.retries == FAST.max_attempts - 1
    assert serial.serial_fallbacks == pool.serial_fallbacks == 0
    assert [f.index for f in serial.failures] == [f.index for f in pool.failures]
    assert serial.point_wall_s.n == pool.point_wall_s.n == 3
    assert serial_attempts["ok"] == pool_attempts["ok"] == 3
    assert [r is None for r in serial_results] == [r is None for r in pool_results]
    # The in-process crash raises; the worker's crash kills the worker.
    assert serial_attempts["error"] == pool_attempts["worker_died"] == 3
    # The fallback is the in-process loop's one extra attempt.
    assert pool_attempts["error"] == 1
    assert serial.failures[0].attempts == FAST.max_attempts
    assert pool.failures[0].attempts == FAST.max_attempts + 1


def test_fallback_off_gives_up_with_the_pool_budget():
    policy = dataclasses.replace(FAST, serial_fallback=False)
    faults = FaultPlan({2: PointFault(FAULT_CRASH, times=99)})
    _, report = run_points_report(_specs(), jobs=2, policy=policy, faults=faults)
    (failure,) = report.failures
    assert (failure.index, failure.attempts) == (2, FAST.max_attempts)
    assert failure.exc_type == "WorkerDied"


def test_validation_failure_is_an_ordinary_failed_attempt(monkeypatch):
    def reject(result, **flags):
        raise ValidationError("invariant 'write-conservation' violated: test")

    monkeypatch.setattr(runner, "validate_result", reject)
    _, report = run_points_report(_specs(2), jobs=1, policy=FAST)
    assert report.retries == 2 * (FAST.max_attempts - 1)
    assert [f.exc_type for f in report.failures] == ["ValidationError"] * 2
