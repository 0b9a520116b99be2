"""Typed fleet metrics: Counter / Gauge / Histogram families with labels.

Where :mod:`repro.obs.tracer` records the dynamics of one *simulated*
machine, this module records the dynamics of the *harness fleet* — the
supervised worker pool, the resume journal, and anything else that runs
for long enough to need live health reporting. The design mirrors the
tracer's rules:

* **Zero overhead when disabled.** The default everywhere is
  :data:`NULL_METRICS`, a singleton whose families are all no-ops and
  whose ``enabled`` flag is ``False``, so instrumented code can guard
  expensive label formatting with ``if metrics.enabled:`` and pay at most
  an attribute load and a branch (the ``NULL_TRACER`` idiom).
* **Typed families, not a generic log call.** A metric is declared once
  with a kind (counter / gauge / histogram), a help string, and its label
  names; every later use goes through the declared family, so the
  exposition schema is stable and the docs-drift test can hold the
  vocabulary to :doc:`docs/OBSERVABILITY.md`.
* **Snapshot + merge.** ``registry.snapshot()`` is a plain JSON-able
  dict; ``registry.merge_snapshot(...)`` folds another snapshot in
  (counters add, gauges combine per their declared merge mode, histograms
  merge bucket-wise) so per-worker registries can be combined into one
  fleet view.
* **Prometheus text exposition.** ``registry.to_prometheus()`` (and the
  module-level :func:`prometheus_text` over a snapshot) emit the standard
  ``text/plain; version=0.0.4`` format — ``# HELP`` / ``# TYPE`` comments,
  escaped labels, cumulative ``_bucket``/``_sum``/``_count`` histogram
  series — validated by ``tools/check_prom_format.py`` in CI.

An optional :class:`MetricsStream` attached to the registry gives the
sweep runner a JSONL event channel alongside the journal (per-point
completions, failures, periodic snapshots) that ``repro sweep-report``
reads back post-hoc.
"""

from __future__ import annotations

import json
import math
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.histogram import Histogram

#: Content type a Prometheus scraper expects from a text-format endpoint.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_VALID_KINDS = ("counter", "gauge", "histogram")
_GAUGE_MERGE_MODES = ("last", "sum", "max", "min")


def _escape_label_value(value: str) -> str:
    """Prometheus label-value escaping: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """A sample value in exposition form (ints without a trailing .0)."""
    if value != value:  # NaN
        return "NaN"
    if value in (math.inf, -math.inf):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_pairs(label_names: Sequence[str], label_values: Sequence[str]) -> str:
    return ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, label_values)
    )


class _Series:
    """One labelled time series of a family: a scalar or a histogram."""

    __slots__ = ("value", "hist")

    def __init__(self, hist: Optional[Histogram] = None):
        self.value: float = 0.0
        self.hist = hist

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def set(self, value: float) -> None:
        self.value = value

    def observe(self, value: float) -> None:
        self.hist.record(value)  # type: ignore[union-attr]


class MetricFamily:
    """A named metric with fixed label names and one series per label set.

    Obtained from :meth:`MetricsRegistry.counter` / ``gauge`` /
    ``histogram``; use :meth:`labels` to get (or create) the series for
    one label-value combination, or call ``inc``/``set``/``observe``
    directly on the family when it has no labels.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Sequence[str] = (),
        bounds: Sequence[float] = (),
        gauge_merge: str = "last",
    ):
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        if gauge_merge not in _GAUGE_MERGE_MODES:
            raise ValueError(f"unknown gauge merge mode {gauge_merge!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.bounds = tuple(bounds)
        self.gauge_merge = gauge_merge
        self.series: Dict[Tuple[str, ...], _Series] = {}

    # -- series access ---------------------------------------------------

    def labels(self, *values: object) -> _Series:
        """The series for one label-value tuple (created on first use)."""
        if len(values) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects {len(self.label_names)} label values "
                f"{self.label_names}, got {values!r}"
            )
        key = tuple(str(v) for v in values)
        series = self.series.get(key)
        if series is None:
            series = self.series[key] = _Series(
                Histogram(self.bounds) if self.kind == "histogram" else None
            )
        return series

    # Unlabelled convenience: the family itself acts as its only series.

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    def value(self, *values: object) -> float:
        """Current scalar value of one series (0.0 if never touched)."""
        key = tuple(str(v) for v in values)
        series = self.series.get(key)
        return series.value if series is not None else 0.0

    def total(self) -> float:
        """Sum of every series' scalar value (counters/gauges)."""
        return sum(series.value for series in self.series.values())


class _NullSeries:
    """The no-op series every :data:`NULL_METRICS` family hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullFamily(_NullSeries):
    """A disabled metric family: ``labels(...)`` returns a no-op series."""

    __slots__ = ()
    series: Dict[Tuple[str, ...], _Series] = {}

    def labels(self, *values: object) -> "_NullFamily":
        return self

    def value(self, *values: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


_NULL_FAMILY = _NullFamily()


class MetricsStream:
    """Append-only JSONL event stream riding alongside the sweep journal.

    The runner appends one record per completed point / failure /
    resume-replay and the live reporter appends periodic registry
    snapshots; ``repro sweep-report`` reads the file back. Records carry
    wall-clock ``ts`` (seconds since the epoch) and a ``kind``
    discriminator. Appends are flushed per record so a killed sweep
    leaves at most a torn final line (tolerated on read, like the
    journal's).
    """

    def __init__(self, path: str):
        self.path = path
        self.records_written = 0

    def event(self, kind: str, **fields: object) -> None:
        record = {"kind": kind, "ts": time.time(), **fields}
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True, default=str))
            fh.write("\n")
            fh.flush()
        self.records_written += 1


def load_stream(path: str) -> List[Dict[str, object]]:
    """Read a :class:`MetricsStream` file back (torn tail tolerated)."""
    records: List[Dict[str, object]] = []
    if not os.path.exists(path):
        return records
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a kill mid-append
            if isinstance(record, dict):
                records.append(record)
    return records


class MetricsRegistry:
    """Holds every declared metric family; snapshot/merge/exposition root.

    Declaring the same name twice returns the existing family (and
    raises if the second declaration disagrees on kind or labels), so
    instrumentation sites can re-declare idempotently.
    """

    enabled = True

    def __init__(self, stream: Optional[MetricsStream] = None):
        self.families: Dict[str, MetricFamily] = {}
        self.stream = stream

    # -- declaration -----------------------------------------------------

    def _declare(self, name: str, kind: str, help: str, **kwargs) -> MetricFamily:
        existing = self.families.get(name)
        if existing is not None:
            if existing.kind != kind or existing.label_names != tuple(
                kwargs.get("label_names", ())
            ):
                raise ValueError(
                    f"metric {name!r} re-declared with a different "
                    f"kind/label set (was {existing.kind}{existing.label_names})"
                )
            return existing
        family = MetricFamily(name, kind, help, **kwargs)
        self.families[name] = family
        return family

    def counter(
        self, name: str, help: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        """A monotonically increasing count (merge: sum)."""
        return self._declare(name, "counter", help, label_names=labels)

    def gauge(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        merge: str = "last",
    ) -> MetricFamily:
        """A point-in-time value; ``merge`` (last/sum/max/min) governs
        how :meth:`merge_snapshot` combines two registries' values."""
        return self._declare(
            name, "gauge", help, label_names=labels, gauge_merge=merge
        )

    def histogram(
        self,
        name: str,
        help: str,
        labels: Sequence[str] = (),
        bounds: Sequence[float] = (),
    ) -> MetricFamily:
        """A fixed-bucket distribution (merge: bucket-wise addition)."""
        return self._declare(
            name, "histogram", help, label_names=labels, bounds=bounds
        )

    # -- event stream ----------------------------------------------------

    def event(self, kind: str, **fields: object) -> None:
        """Append one record to the attached JSONL stream (no-op without)."""
        if self.stream is not None:
            self.stream.event(kind, **fields)

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """A plain JSON-able dict of every family and series."""
        families: Dict[str, object] = {}
        for name, family in sorted(self.families.items()):
            series = []
            for key in sorted(family.series):
                entry: Dict[str, object] = {"labels": list(key)}
                if family.kind == "histogram":
                    entry["hist"] = family.series[key].hist.to_dict()
                else:
                    entry["value"] = family.series[key].value
                series.append(entry)
            families[name] = {
                "kind": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "gauge_merge": family.gauge_merge,
                "series": series,
            }
        return {"families": families}

    def merge_snapshot(self, snapshot: Dict[str, object]) -> None:
        """Fold another registry's :meth:`snapshot` into this registry.

        Counters and histograms add; gauges combine according to the
        family's declared merge mode (``last`` takes the incoming value).
        Families unknown to this registry are declared from the snapshot.
        """
        for name, payload in snapshot.get("families", {}).items():  # type: ignore[union-attr]
            kind = payload["kind"]
            family = self._declare(
                name,
                kind,
                payload.get("help", ""),
                label_names=tuple(payload.get("label_names", ())),
                **(
                    {"gauge_merge": payload.get("gauge_merge", "last")}
                    if kind == "gauge"
                    else {}
                ),
            )
            for entry in payload["series"]:
                key = tuple(entry["labels"])
                if kind == "histogram":
                    incoming = _hist_from_dict(entry["hist"])
                    series = family.labels(*key)
                    if series.hist.n == 0 and series.hist.bounds != incoming.bounds:
                        series.hist = incoming
                    else:
                        series.hist.merge(incoming)
                elif kind == "counter":
                    family.labels(*key).inc(entry["value"])
                else:
                    series = family.labels(*key)
                    mode = family.gauge_merge
                    if mode == "sum":
                        series.value += entry["value"]
                    elif mode == "max":
                        series.value = max(series.value, entry["value"])
                    elif mode == "min":
                        series.value = min(series.value, entry["value"])
                    else:  # "last": the incoming snapshot wins
                        series.value = entry["value"]

    # -- exposition ------------------------------------------------------

    def to_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return prometheus_text(self.snapshot())


def _hist_from_dict(payload: Dict[str, object]) -> Histogram:
    """Rebuild a :class:`Histogram` from :meth:`Histogram.to_dict`."""
    hist = Histogram(payload["bounds"])  # type: ignore[arg-type]
    hist.counts = list(payload["counts"])  # type: ignore[arg-type]
    hist.n = int(payload["n"])  # type: ignore[arg-type]
    total = payload.get("total")
    hist.total = (
        float(total)  # type: ignore[arg-type]
        if total is not None
        else float(payload.get("mean", 0.0)) * hist.n  # type: ignore[arg-type]
    )
    hist.min = float(payload.get("min", 0.0))  # type: ignore[arg-type]
    hist.max = float(payload.get("max", 0.0))  # type: ignore[arg-type]
    return hist


def prometheus_text(snapshot: Dict[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text.

    One ``# HELP`` / ``# TYPE`` pair per family, then one sample line per
    series — histograms expand to cumulative ``_bucket{le=...}`` series
    plus ``_sum`` and ``_count``, per the format spec.
    """
    lines: List[str] = []
    for name, payload in sorted(snapshot.get("families", {}).items()):  # type: ignore[union-attr]
        kind = payload["kind"]
        help_text = str(payload.get("help", "")).replace("\\", "\\\\").replace(
            "\n", "\\n"
        )
        label_names = tuple(payload.get("label_names", ()))
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for entry in payload["series"]:
            pairs = _label_pairs(label_names, entry["labels"])
            if kind == "histogram":
                hist = entry["hist"]
                cumulative = 0
                for bound, count in zip(hist["bounds"], hist["counts"]):
                    cumulative += count
                    le_pairs = (pairs + "," if pairs else "") + f'le="{_format_value(bound)}"'
                    lines.append(f"{name}_bucket{{{le_pairs}}} {cumulative}")
                inf_pairs = (pairs + "," if pairs else "") + 'le="+Inf"'
                lines.append(f"{name}_bucket{{{inf_pairs}}} {hist['n']}")
                total = float(
                    hist.get("total", float(hist.get("mean", 0.0)) * int(hist["n"]))
                )
                suffix = f"{{{pairs}}}" if pairs else ""
                lines.append(f"{name}_sum{suffix} {_format_value(total)}")
                lines.append(f"{name}_count{suffix} {hist['n']}")
            else:
                suffix = f"{{{pairs}}}" if pairs else ""
                lines.append(f"{name}{suffix} {_format_value(entry['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_value(
    snapshot: Dict[str, object], name: str, labels: Sequence[str] = ()
) -> float:
    """Read one scalar series out of a snapshot (0.0 when absent)."""
    family = snapshot.get("families", {}).get(name)  # type: ignore[union-attr]
    if not family:
        return 0.0
    want = [str(v) for v in labels]
    for entry in family["series"]:
        if entry["labels"] == want:
            return float(entry.get("value", 0.0))
    return 0.0


def write_prometheus_file(snapshot: Dict[str, object], path: str) -> None:
    """Atomically write a snapshot's exposition text to ``path``.

    Written via a temp file + rename so a scraper reading the file never
    sees a half-written snapshot.
    """
    text = prometheus_text(snapshot)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class NullMetrics:
    """The disabled registry: every family is a shared no-op.

    Instrumented code holds this by default, so building a harness
    without metrics records nothing and allocates nothing; ``enabled``
    is ``False`` so hot paths can skip label/value construction.
    """

    enabled = False
    families: Dict[str, MetricFamily] = {}
    stream = None

    def counter(self, name, help, labels=()) -> _NullFamily:
        return _NULL_FAMILY

    def gauge(self, name, help, labels=(), merge="last") -> _NullFamily:
        return _NULL_FAMILY

    def histogram(self, name, help, labels=(), bounds=()) -> _NullFamily:
        return _NULL_FAMILY

    def event(self, kind, **fields) -> None:
        pass

    def snapshot(self) -> Dict[str, object]:
        return {"families": {}}

    def merge_snapshot(self, snapshot) -> None:
        pass

    def to_prometheus(self) -> str:
        return ""


#: The process-wide disabled registry every component defaults to.
NULL_METRICS = NullMetrics()
