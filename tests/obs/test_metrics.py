"""The typed fleet-metrics registry: families, snapshot/merge, exposition.

Covers the contracts the sweep runner and the CI tooling depend on:
idempotent declaration, label-series bookkeeping, snapshot round-trips,
merge semantics per kind (counters add, gauges per declared mode,
histograms bucket-wise), Prometheus text that passes the repo's own
line-grammar validator, the zero-overhead NULL_METRICS singleton, and
the JSONL event stream (torn tail tolerated on read).
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.obs.histogram import Histogram
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    MetricsStream,
    NullMetrics,
    load_stream,
    prometheus_text,
    snapshot_value,
    write_prometheus_file,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load_validator():
    spec = importlib.util.spec_from_file_location(
        "check_prom_format", REPO_ROOT / "tools" / "check_prom_format.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestFamilies:
    def test_counter_inc_and_labels(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "help", labels=("status",))
        family.labels("ok").inc()
        family.labels("ok").inc(2)
        family.labels("failed").inc()
        assert family.value("ok") == 3
        assert family.value("failed") == 1
        assert family.value("never") == 0.0
        assert family.total() == 4

    def test_gauge_set_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("t_gauge", "help")
        gauge.set(5)
        gauge.dec()
        assert gauge.value() == 4

    def test_histogram_observe(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "help", bounds=(1, 10))
        hist.observe(0.5)
        hist.observe(50)
        series = hist.labels()
        assert series.hist.n == 2
        assert series.hist.counts == [1, 0, 1]

    def test_declaration_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("t_total", "help", labels=("a",))
        again = registry.counter("t_total", "other help", labels=("a",))
        assert first is again

    def test_conflicting_redeclaration_raises(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help")
        with pytest.raises(ValueError):
            registry.gauge("t_total", "help")
        with pytest.raises(ValueError):
            registry.counter("t_total", "help", labels=("status",))

    def test_wrong_label_arity_raises(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "help", labels=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")


class TestSnapshotAndMerge:
    def test_snapshot_is_json_roundtrippable(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "help", labels=("s",)).labels("ok").inc(3)
        registry.histogram("t_wall", "help", bounds=(1, 2)).observe(1.5)
        snapshot = json.loads(json.dumps(registry.snapshot()))
        assert snapshot_value(snapshot, "t_total", ("ok",)) == 3
        assert snapshot["families"]["t_wall"]["series"][0]["hist"]["n"] == 1

    def test_counters_add_on_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("t_total", "help").inc(2)
        b.counter("t_total", "help").inc(5)
        a.merge_snapshot(b.snapshot())
        assert a.families["t_total"].value() == 7

    @pytest.mark.parametrize(
        "mode,expected", [("sum", 7.0), ("max", 5.0), ("min", 2.0), ("last", 5.0)]
    )
    def test_gauge_merge_modes(self, mode, expected):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("t_gauge", "help", merge=mode).set(2)
        b.gauge("t_gauge", "help", merge=mode).set(5)
        a.merge_snapshot(b.snapshot())
        assert a.families["t_gauge"].value() == expected

    def test_histograms_merge_bucketwise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, values in ((a, (0.5, 5)), (b, (0.7, 500))):
            hist = registry.histogram("t_wall", "help", bounds=(1, 10))
            for value in values:
                hist.observe(value)
        a.merge_snapshot(b.snapshot())
        merged = a.families["t_wall"].labels().hist
        assert merged.n == 4
        assert merged.counts == [2, 1, 1]
        assert merged.max == 500

    def test_merge_declares_unknown_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("t_new", "from b").inc(4)
        a.merge_snapshot(b.snapshot())
        assert a.families["t_new"].value() == 4

    def test_merge_adopts_incoming_bounds_when_local_is_fresh(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("t_wall", "help", bounds=(1, 10)).observe(5)
        a.histogram("t_wall", "help")  # default bounds, never observed
        a.merge_snapshot(b.snapshot())
        assert a.families["t_wall"].labels().hist.n == 1


class TestPrometheusText:
    def test_exposition_passes_the_repo_validator(self):
        registry = MetricsRegistry()
        registry.counter("t_total", "a counter", labels=("s",)).labels("ok").inc()
        registry.gauge("t_gauge", "a gauge").set(1.5)
        hist = registry.histogram("t_wall", "a histogram", bounds=(1, 10))
        hist.observe(0.5)
        hist.observe(50)
        errors = _load_validator().validate_text(registry.to_prometheus())
        assert errors == []

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("t_wall", "h", bounds=(1, 10))
        for value in (0.5, 0.6, 5, 500):
            hist.observe(value)
        text = registry.to_prometheus()
        assert 't_wall_bucket{le="1"} 2' in text
        assert 't_wall_bucket{le="10"} 3' in text
        assert 't_wall_bucket{le="+Inf"} 4' in text
        assert "t_wall_count 4" in text
        assert "t_wall_sum 506.1" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("t_total", "help", labels=("label",))
        family.labels('quo"te\nnew\\slash').inc()
        text = registry.to_prometheus()
        assert '\\"' in text and "\\n" in text and "\\\\" in text
        assert _load_validator().validate_text(text) == []

    def test_special_float_values(self):
        registry = MetricsRegistry()
        registry.gauge("t_nan", "h").set(float("nan"))
        registry.gauge("t_inf", "h").set(math.inf)
        registry.gauge("t_int", "h").set(3.0)
        text = registry.to_prometheus()
        assert "t_nan NaN" in text
        assert "t_inf +Inf" in text
        assert "t_int 3\n" in text

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry().snapshot()) == ""

    def test_write_prometheus_file_atomic(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("t_total", "h").inc()
        path = tmp_path / "out.prom"
        write_prometheus_file(registry.snapshot(), str(path))
        assert "t_total 1" in path.read_text()
        assert list(tmp_path.iterdir()) == [path]  # no temp litter


class TestNullMetrics:
    def test_disabled_and_shared(self):
        assert NULL_METRICS.enabled is False
        assert isinstance(NULL_METRICS, NullMetrics)
        family = NULL_METRICS.counter("t_total", "h", labels=("s",))
        assert family.labels("anything", "arity", "ignored") is family

    def test_all_operations_are_noops(self):
        family = NULL_METRICS.histogram("t_wall", "h")
        family.inc()
        family.dec()
        family.set(5)
        family.observe(1.0)
        NULL_METRICS.event("kind", field=1)
        NULL_METRICS.merge_snapshot({"families": {}})
        assert family.value() == 0.0
        assert family.total() == 0.0
        assert NULL_METRICS.snapshot() == {"families": {}}
        assert NULL_METRICS.to_prometheus() == ""


class TestMetricsStream:
    def test_events_round_trip(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        stream = MetricsStream(str(path))
        registry = MetricsRegistry(stream=stream)
        registry.event("point", index=3, wall_s=0.25)
        registry.event("final", metrics=registry.snapshot())
        assert stream.records_written == 2
        records = load_stream(str(path))
        assert [r["kind"] for r in records] == ["point", "final"]
        assert records[0]["index"] == 3
        assert all("ts" in r for r in records)

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        MetricsStream(str(path)).event("point", index=1)
        with open(path, "a") as fh:
            fh.write('{"kind": "point", "ind')  # SIGKILL mid-append
        records = load_stream(str(path))
        assert len(records) == 1

    def test_missing_file_loads_empty(self, tmp_path):
        assert load_stream(str(tmp_path / "absent.jsonl")) == []

    def test_registry_without_stream_drops_events(self):
        MetricsRegistry().event("point", index=1)  # must not raise

