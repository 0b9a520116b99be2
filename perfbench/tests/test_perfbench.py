"""Tests of the benchmark itself, on grids small enough to run in seconds.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import grid, layers, report, run  # noqa: E402
from repro.core.schemes import Scheme  # noqa: E402
from repro.experiments.runner import PointSpec  # noqa: E402


def _tiny(name, via_runner, **spec_fields):
    # 12 points: the fewest that still leave ten beyond a tail percentile.
    def specs(seed):
        return [
            PointSpec(
                base_config=grid.base_config(),
                seed=seed + offset,
                scheme=scheme,
                **spec_fields,
            )
            for offset in range(4)
            for scheme in (Scheme.UNSEC, Scheme.SUPERMEM, Scheme.SUPERMEM_BMT)
        ]

    return grid.Workload(name, specs, via_runner)


#: One small grid per kernel the real workloads use.
TINY = (
    _tiny("replay", True, workload="array", n_ops=6, request_size=256),
    _tiny(
        "multicore", True, workload="queue", n_ops=3, request_size=256,
        footprint=None, n_programs=2,
    ),
    _tiny("full", False, workload="mixed", n_ops=20, request_size=256, fidelity="full"),
)


def _untraced(workload, seed=grid.DEFAULT_SEED, golden=None):
    return run.run_untraced(workload, seed, 0.0, 0.0, golden)


def _golden_of(workload, seed=grid.DEFAULT_SEED):
    prepared = grid.setup(workload, seed)
    done = grid.timed_pass(workload, prepared)
    assert done.failures == [None] * len(done.failures)
    return {
        grid.point_label(i, spec): digest
        for i, (spec, digest) in enumerate(zip(prepared.specs, done.digests))
    }


def _all_targets():
    return layers.timed_targets() + layers.setup_targets()


# ----------------------------------------------------------------------
# Metric catalogue and BENCHMARK.json
# ----------------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    names = [name for name, _ in report.END_TO_END + report.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in report.END_TO_END + report.PER_LAYER:
        assert report.NAME_RE.match(name), name
        assert report.UNIT_RE.match(unit), (name, unit)


def test_metric_counts_within_limits():
    assert 1 <= len(report.END_TO_END) <= 16
    assert 1 <= len(report.PER_LAYER) <= 128


def test_benchmark_json_matches_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = {
        key: [(m["name"], m["unit"]) for m in spec[key]]
        for key in ("end_to_end", "per_layer")
    }
    assert declared["end_to_end"] == list(report.END_TO_END)
    assert declared["per_layer"] == list(report.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(grid.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_every_metric_prints_with_its_unit(workload):
    runs = (
        (report.END_TO_END, _untraced(workload) + (True,)),
        (report.PER_LAYER, _traced(workload)),
    )
    for catalogue, (values, _, failures, correct) in runs:
        assert correct and failures.count(None) == len(failures)
        printed = report.format_metrics(values, catalogue)
        assert list(printed) == [name for name, _ in catalogue]
        for name, unit in catalogue:
            assert printed[name]["unit"] == unit
            assert isinstance(printed[name]["value"], float)


def test_golden_covers_every_workload_grid():
    for name, workload in grid.WORKLOADS.items():
        specs = workload.specs(grid.DEFAULT_SEED)
        labels = [grid.point_label(i, spec) for i, spec in enumerate(specs)]
        assert list(run.load_golden(name)) == labels


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", list(grid.WORKLOADS))
def test_seed_changes_generated_traces(name):
    specs = {seed: grid.WORKLOADS[name].specs(seed)[0] for seed in (1, 2)}
    ops = {
        seed: [t.ops for t in grid.point_traces(spec)] for seed, spec in specs.items()
    }
    assert ops[1] != ops[2]
    assert ops[1] == [t.ops for t in grid.point_traces(specs[1])]


def test_seed_changes_results():
    workload = TINY[0]
    digests = [list(_golden_of(workload, seed).values()) for seed in (1, 2)]
    assert digests[0] != digests[1]


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------


def _traced(workload, seed=grid.DEFAULT_SEED, golden=None):
    return run.run_traced(workload, seed, 0.0, golden)


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_traced_run_adds_up_and_leaves_no_shims(workload):
    before = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in _all_targets()]
    values, _, failures, correct = _traced(workload)
    assert correct and failures.count(None) == len(failures)
    after = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in _all_targets()]
    assert all(a[2] is b[2] for a, b in zip(before, after))
    for owner, attr, _ in _all_targets():
        assert not hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    assert abs(values["trace.self_sum_frac"] - 1.0) <= run.SELF_SUM_TOLERANCE
    assert values["trace.overhead"] > 0
    assert values["memory.controller.schedule_calls"] > 0


def test_shims_removed_when_the_pass_raises(monkeypatch):
    timed_pass = grid.timed_pass

    def explode(workload, prepared, tracer=None):
        if tracer is not None:
            raise RuntimeError("boom")
        return timed_pass(workload, prepared)

    monkeypatch.setattr(grid, "timed_pass", explode)
    before = [vars(owner).get(attr) for owner, attr, _ in _all_targets()]
    with pytest.raises(RuntimeError):
        _traced(TINY[0])
    assert [vars(owner).get(attr) for owner, attr, _ in _all_targets()] == before


def test_layer_self_times_sum_to_outer_spans():
    tracer = layers.LayerTracer()

    class Inner:
        def work(self):
            return sum(range(2000))

    class Outer:
        def work(self):
            return Inner().work() + Inner().work()

    tracer.install([(Outer, "work", "a.outer"), (Inner, "work", "a.inner")])
    try:
        tracer.timed("root.run", lambda: [Outer().work() for _ in range(50)])
    finally:
        tracer.remove()
    assert tracer.calls == {"a.outer": 50, "a.inner": 100, "root.run": 1}
    assert tracer.total_self() == pytest.approx(tracer.busy["root.run"], rel=1e-9)
    assert min(tracer.self_time.values()) >= 0
    assert "work" in vars(Outer) and not hasattr(Outer.work, "__wrapped__")


# ----------------------------------------------------------------------
# Correctness accounting
# ----------------------------------------------------------------------


def test_failed_frac_rises_when_a_golden_digest_is_corrupted():
    workload = TINY[0]
    golden = _golden_of(workload)
    _, _, failures = _untraced(workload, golden=golden)
    assert failures.count(None) == len(failures)

    label = next(iter(golden))
    golden[label] = "0" * 64
    _, _, failures = _untraced(workload, golden=golden)
    passes = len(failures) // len(golden)
    assert passes >= 1
    assert failures.count(grid.FAIL_GOLDEN) == passes
    assert failures.count(None) == len(failures) - passes


def test_invalid_result_counts_as_failed(monkeypatch):
    monkeypatch.setattr(grid, "check_point", lambda spec, result: "broken")
    _, _, failures = _untraced(TINY[0])
    assert failures and all(f == grid.FAIL_INVALID for f in failures)


def test_refuses_to_run_without_simulator_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig13", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_kernel_runs_its_share():
    from perfbench import hostspeed

    speed = hostspeed.HostSpeed()
    speed.sample(0.0)
    assert speed.slices == 1
    speed.sample(0.5)
    assert speed.seconds >= hostspeed.SHARE * 0.5
    assert speed.factor > 0
