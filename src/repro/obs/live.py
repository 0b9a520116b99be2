"""Live fleet reporting: a periodic status line, JSONL snapshots, and a
Prometheus file snapshot, driven from a background thread.

``repro run ... --live`` starts one :class:`LiveReporter` around the
experiment sweep. Every ``interval_s`` wall-clock seconds it

* prints one human status line to stderr (done/total, completion %,
  points/s throughput, ETA, in-flight workers, retries, failures) built
  from the sweep-runner gauges (:mod:`repro.experiments.runner` installs
  them; see ``docs/OBSERVABILITY.md`` "Fleet metrics");
* appends a full registry snapshot to the metrics JSONL stream riding
  alongside the sweep journal (``kind="snapshot"`` records that
  ``repro sweep-report`` reads back); and
* atomically rewrites the Prometheus text snapshot file, so an
  external scraper reading that file during a long sweep sees it move.

The thread only *reads* the registry (plain attribute loads under the
GIL), so it can never perturb the sweep — worst case a status line is
one sample stale.
"""

from __future__ import annotations

import sys
import threading
from typing import Optional, TextIO

from repro.obs.metrics import (
    MetricsRegistry,
    snapshot_value,
    write_prometheus_file,
)


def format_status_line(snapshot: dict, label: str = "sweep") -> str:
    """One human-readable health line from a registry snapshot."""
    done = snapshot_value(snapshot, "repro_sweep_done")
    total = snapshot_value(snapshot, "repro_sweep_points")
    rate = snapshot_value(snapshot, "repro_sweep_points_per_second")
    eta = snapshot_value(snapshot, "repro_sweep_eta_seconds")
    in_flight = snapshot_value(snapshot, "repro_sweep_in_flight")
    retries = snapshot_value(snapshot, "repro_sweep_retries_total")
    failures = snapshot_value(snapshot, "repro_sweep_points_total", ("failed",))
    pct = 100.0 * done / total if total else 0.0
    parts = [
        f"[live] {label}: {int(done)}/{int(total)} ({pct:.1f}%)",
        f"{rate:.2f} pts/s",
        f"eta {eta:.1f}s",
        f"in-flight {int(in_flight)}",
    ]
    if retries:
        parts.append(f"retries {int(retries)}")
    if failures:
        parts.append(f"failures {int(failures)}")
    return " ".join(parts)


class LiveReporter:
    """Background thread publishing registry state on a fixed interval."""

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = 2.0,
        label: str = "sweep",
        prom_path: Optional[str] = None,
        out: Optional[TextIO] = None,
        status: bool = True,
    ):
        if interval_s <= 0:
            raise ValueError(f"live interval must be positive: {interval_s}")
        self.registry = registry
        self.interval_s = interval_s
        self.label = label
        self.prom_path = prom_path
        self.out = out if out is not None else sys.stderr
        self.status = status
        self.emissions = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="live-metrics", daemon=True
        )

    # ------------------------------------------------------------------

    def emit(self, kind: str = "snapshot") -> dict:
        """Publish one snapshot now (also called on every timer tick)."""
        snapshot = self.registry.snapshot()
        if self.status:
            print(format_status_line(snapshot, self.label), file=self.out)
        self.registry.event(kind, metrics=snapshot)
        if self.prom_path is not None:
            write_prometheus_file(snapshot, self.prom_path)
        self.emissions += 1
        return snapshot

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.emit()

    def start(self) -> "LiveReporter":
        self._thread.start()
        return self

    def stop(self) -> dict:
        """Stop the timer and publish one final snapshot."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=self.interval_s + 5)
        return self.emit(kind="final")
