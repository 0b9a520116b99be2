"""Docs-drift guards: the docs must track the code they document.

Contracts, all enforced mechanically so documentation cannot rot
silently:

* every ``CrashController.probe("...")`` call site in ``repro.txn`` and
  ``repro.core`` must be named in ``docs/RECOVERY.md`` — and the
  :data:`~repro.core.crash.PROBE_POINTS` registry must equal the set of
  call sites the source scan finds (a probe added without registering
  it, or registered without a call site, fails here);
* every subcommand and long flag of the ``python -m repro`` argparse
  tree must be named in ``docs/CLI.md``;
* every :class:`~repro.core.schemes.Scheme` (enum value and display
  label) must be named in ``docs/MODEL.md``;
* every observability vocabulary constant of :mod:`repro.obs.events`
  (``CAT_*`` categories, ``TRACK_*`` series tracks, ``*_EV_*`` event
  names) must appear in ``docs/OBSERVABILITY.md`` or
  ``docs/PERFORMANCE.md``;
* every fleet-metric name in
  :data:`repro.experiments.runner.METRIC_NAMES` must appear (in
  backticks) in ``docs/OBSERVABILITY.md``, and the tuple must equal the
  families ``SweepMetrics`` actually declares — and likewise for the
  auto-tuner's :data:`repro.experiments.tuner.TUNER_METRIC_NAMES` /
  ``TunerMetrics``;
* every search-space knob, strategy, fitness, and budget preset of
  :mod:`repro.experiments.tuner` must be named in ``docs/TUNING.md`` —
  bidirectionally: every knob row of the TUNING.md search-space table
  must name a knob that exists in ``SEARCH_SPACE``;
* every field of every configuration dataclass (``SimConfig`` and its
  sub-configs) must be named in backticks in ``docs/CONFIG.md`` — a new
  knob (``fidelity``, ``hot_path``, ...) cannot land undocumented;
* every CI-ratcheted bench-sweep ratio (``tools/check_bench_ratio.py``
  FLOORS/CEILINGS) and every benchmark leg name must appear in
  ``docs/PERFORMANCE.md`` — a new ratchet or leg cannot land without its
  trajectory being documented.

Plus the repo-wide markdown link check (``tools/check_links.py``) so a
renamed doc breaks the tier-1 suite, not just CI.
"""

import argparse
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DOCS = REPO_ROOT / "docs"

#: A probe call: CrashController.probe("<name>", ...).
_PROBE_CALL = re.compile(r"\.probe\(\s*\n?\s*\"([a-z0-9-]+)\"")


def _source_probe_names() -> set:
    names = set()
    for package in ("txn", "core"):
        for path in (REPO_ROOT / "src" / "repro" / package).glob("**/*.py"):
            names.update(_PROBE_CALL.findall(path.read_text(encoding="utf-8")))
    return names


class TestRecoveryDoc:
    def test_probe_sites_exist(self):
        """The extraction regex must keep matching real call sites."""
        names = _source_probe_names()
        assert len(names) >= 8, names
        assert "wt-no-register-gap" in names
        assert "txn-after-prepare" in names

    def test_every_probe_name_is_documented(self):
        text = (DOCS / "RECOVERY.md").read_text(encoding="utf-8")
        missing = sorted(n for n in _source_probe_names() if n not in text)
        assert not missing, (
            f"crash probes undocumented in docs/RECOVERY.md: {missing} — "
            "add each to the probe catalogue"
        )

    def test_registry_matches_source_scan(self):
        """PROBE_POINTS is the machine-readable probe catalogue (the
        fuzz harness iterates it); it must equal the set of call sites
        actually present in the source."""
        from repro.core.crash import PROBE_POINTS

        scanned = _source_probe_names()
        registered = set(PROBE_POINTS)
        assert registered == scanned, (
            f"unregistered probes: {sorted(scanned - registered)}; "
            f"registered but never fired in source: {sorted(registered - scanned)}"
        )

    def test_every_recovery_path_is_documented(self):
        """Every ``RECOVERY_PATH_*`` constant (the `recovery_path` names
        the CLI and the cost reports print) must appear, backticked, in
        the RECOVERY.md path table."""
        from repro.core import schemes

        text = (DOCS / "RECOVERY.md").read_text(encoding="utf-8")
        paths = [
            getattr(schemes, name)
            for name in dir(schemes)
            if name.startswith("RECOVERY_PATH_")
        ]
        assert len(paths) >= 4, paths
        missing = [path for path in paths if f"`{path}`" not in text]
        assert not missing, (
            f"recovery paths undocumented in docs/RECOVERY.md: {missing}"
        )


class TestModelDoc:
    def test_every_scheme_is_documented(self):
        from repro.core.schemes import Scheme

        text = (DOCS / "MODEL.md").read_text(encoding="utf-8")
        missing = []
        for scheme in Scheme:
            if f"`{scheme.value}`" not in text or scheme.label not in text:
                missing.append(f"{scheme.value} ({scheme.label})")
        assert not missing, (
            f"schemes undocumented in docs/MODEL.md: {missing} — each needs "
            "its enum value in backticks and its display label"
        )


class TestObservabilityDoc:
    def test_every_metric_name_is_documented(self):
        """The sweep-runner's fleet-metric vocabulary (METRIC_NAMES) must
        be catalogued in docs/OBSERVABILITY.md "Fleet metrics"."""
        from repro.experiments.runner import METRIC_NAMES

        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        missing = [name for name in METRIC_NAMES if f"`{name}`" not in text]
        assert not missing, (
            f"fleet metrics undocumented in docs/OBSERVABILITY.md: {missing} — "
            "add each to the metric-vocabulary table in backticks"
        )

    def test_metric_names_match_declared_families(self):
        """METRIC_NAMES is the documented catalogue; it must equal what
        SweepMetrics actually declares against a registry."""
        from repro.experiments.runner import METRIC_NAMES, SweepMetrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        SweepMetrics(registry)
        assert set(registry.families) == set(METRIC_NAMES)

    def test_every_tuner_metric_name_is_documented(self):
        """The auto-tuner's ``repro_tune_*`` vocabulary must be
        catalogued in docs/OBSERVABILITY.md alongside the fleet metrics."""
        from repro.experiments.tuner import TUNER_METRIC_NAMES

        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        missing = [n for n in TUNER_METRIC_NAMES if f"`{n}`" not in text]
        assert not missing, (
            f"tuner metrics undocumented in docs/OBSERVABILITY.md: {missing}"
        )

    def test_tuner_metric_names_match_declared_families(self):
        from repro.experiments.tuner import TUNER_METRIC_NAMES, TunerMetrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        TunerMetrics(registry)
        assert set(registry.families) == set(TUNER_METRIC_NAMES)

    def test_every_event_vocabulary_constant_is_documented(self):
        from repro.obs import events

        text = (DOCS / "OBSERVABILITY.md").read_text(encoding="utf-8")
        text += (DOCS / "PERFORMANCE.md").read_text(encoding="utf-8")
        missing = []
        for name in dir(events):
            if not (name.startswith(("CAT_", "TRACK_")) or "_EV_" in name):
                continue
            value = getattr(events, name)
            if isinstance(value, str) and value not in text:
                missing.append(f"{name}={value!r}")
        assert not missing, (
            "observability vocabulary undocumented in docs/OBSERVABILITY.md "
            f"or docs/PERFORMANCE.md: {sorted(missing)}"
        )


class TestConfigDoc:
    #: Every config dataclass whose fields docs/CONFIG.md must catalogue.
    CONFIG_CLASSES = (
        "SimConfig",
        "MemoryConfig",
        "TimingConfig",
        "CacheConfig",
        "CounterCacheConfig",
    )

    def test_every_config_field_is_documented(self):
        import dataclasses

        from repro.common import config as config_module

        text = (DOCS / "CONFIG.md").read_text(encoding="utf-8")
        missing = []
        for cls_name in self.CONFIG_CLASSES:
            cls = getattr(config_module, cls_name)
            for field in dataclasses.fields(cls):
                if f"`{field.name}`" not in text:
                    missing.append(f"{cls_name}.{field.name}")
        assert not missing, (
            f"config fields undocumented in docs/CONFIG.md: {missing} — "
            "add each field name in backticks with a one-line meaning"
        )

    def test_fidelity_modes_are_documented(self):
        """The two fidelity values and the forcing rule must be stated."""
        text = (DOCS / "CONFIG.md").read_text(encoding="utf-8")
        for needle in ('`"timing"`', '`"full"`', "--fidelity"):
            assert needle in text, f"docs/CONFIG.md lost {needle!r}"


class TestPerformanceDoc:
    @pytest.fixture(scope="class")
    def perf_text(self):
        return (DOCS / "PERFORMANCE.md").read_text(encoding="utf-8")

    def _ratchet_module(self):
        spec = importlib.util.spec_from_file_location(
            "check_bench_ratio", REPO_ROOT / "tools" / "check_bench_ratio.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_ratcheted_ratio_is_documented(self, perf_text):
        """Each CI floor/ceiling key must be named (in backticks) in
        docs/PERFORMANCE.md — the ratchet exists to hold a documented
        trajectory, so an undocumented ratchet is drift by definition."""
        module = self._ratchet_module()
        keys = sorted(set(module.FLOORS) | set(module.CEILINGS))
        assert len(keys) >= 3, keys
        missing = [key for key in keys if f"`{key}`" not in perf_text]
        assert not missing, (
            f"ratcheted ratios undocumented in docs/PERFORMANCE.md: {missing}"
        )

    def test_every_bench_leg_is_documented(self, perf_text):
        """The leg table must cover every timing the bench emits."""
        from repro.experiments.bench import run_sweep_benchmark

        legs = re.findall(
            r'record\(\s*\n?\s*"([a-z0-9-]+)"',
            inspect.getsource(run_sweep_benchmark),
        )
        assert "batched-replay" in legs and "hotpath" in legs, legs
        missing = [leg for leg in legs if f"`{leg}`" not in perf_text]
        assert not missing, (
            f"bench legs undocumented in docs/PERFORMANCE.md: {missing}"
        )


class TestTuningDoc:
    @pytest.fixture(scope="class")
    def tuning_text(self):
        return (DOCS / "TUNING.md").read_text(encoding="utf-8")

    def test_every_knob_is_documented(self, tuning_text):
        """Each search-space knob needs its name (backticked) and its
        underlying SimConfig field path in the TUNING.md table."""
        from repro.experiments.tuner import SEARCH_SPACE

        missing = []
        for knob in SEARCH_SPACE:
            if f"`{knob.name}`" not in tuning_text:
                missing.append(knob.name)
                continue
            field_root = knob.field.split(" ")[0]
            if f"`{field_root}`" not in tuning_text:
                missing.append(f"{knob.name} (field {field_root})")
        assert not missing, (
            f"search-space knobs undocumented in docs/TUNING.md: {missing}"
        )

    def test_documented_knobs_exist_in_source(self, tuning_text):
        """The reverse direction: every `knob` row of the TUNING.md
        search-space table must name a real SEARCH_SPACE knob."""
        from repro.experiments.tuner import KNOBS

        table_rows = re.findall(
            r"^\|\s*`([a-z_]+)`\s*\|[^|]*\|\s*`[^`]+`", tuning_text, re.M
        )
        assert len(table_rows) >= 6, (
            "TUNING.md search-space table not found (or lost its rows)"
        )
        unknown = [name for name in table_rows if name not in KNOBS]
        assert not unknown, (
            f"docs/TUNING.md documents knobs that do not exist: {unknown}"
        )

    def test_strategies_fitnesses_and_budgets_are_documented(self, tuning_text):
        from repro.experiments.tuner import (
            FITNESS_NAMES,
            STRATEGY_NAMES,
            TUNE_BUDGETS,
        )

        missing = [
            f"`{name}`"
            for name in (
                *STRATEGY_NAMES,
                *FITNESS_NAMES,
                *TUNE_BUDGETS,
            )
            if f"`{name}`" not in tuning_text
        ]
        assert not missing, (
            f"vocabulary undocumented in docs/TUNING.md: {missing}"
        )

    def test_every_knob_choice_is_documented(self, tuning_text):
        """The documented ranges must cover the actual choice tuples."""
        from repro.experiments.tuner import SEARCH_SPACE

        missing = []
        for knob in SEARCH_SPACE:
            for choice in knob.choices:
                if str(choice) not in tuning_text:
                    missing.append(f"{knob.name}={choice}")
        assert not missing, (
            f"knob choices undocumented in docs/TUNING.md: {missing}"
        )


def _walk_parser():
    """Yield (subcommand name, subparser) for every `python -m repro` command."""
    from repro.__main__ import build_parser

    parser = build_parser()
    subactions = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert subactions, "build_parser() no longer defines subcommands?"
    for name, subparser in subactions[0].choices.items():
        yield name, subparser


class TestCliDoc:
    @pytest.fixture(scope="class")
    def cli_text(self):
        return (DOCS / "CLI.md").read_text(encoding="utf-8")

    def test_every_subcommand_is_documented(self, cli_text):
        missing = [name for name, _ in _walk_parser() if name not in cli_text]
        assert not missing, f"subcommands undocumented in docs/CLI.md: {missing}"

    def test_fleet_metrics_subcommands_exist(self):
        """The observability CLI surface CI drives must stay present."""
        names = {name for name, _ in _walk_parser()}
        assert "sweep-report" in names

    def test_every_experiment_choice_is_documented(self, cli_text):
        """The `run` positional's experiment names (fig13 ...
        fig-channels, fig-recovery) must each be named in CLI.md —
        backticked, as the positional-choices prose lists them."""
        from repro.__main__ import EXPERIMENTS

        assert "fig-channels" in EXPERIMENTS
        missing = [name for name in EXPERIMENTS if f"`{name}`" not in cli_text]
        assert not missing, (
            f"experiments undocumented in docs/CLI.md: {missing}"
        )

    def test_every_long_flag_is_documented(self, cli_text):
        missing = []
        for name, subparser in _walk_parser():
            for action in subparser._actions:
                for option in action.option_strings:
                    if option.startswith("--") and option not in cli_text:
                        missing.append(f"{name} {option}")
        assert not missing, f"flags undocumented in docs/CLI.md: {missing}"

    def test_every_positional_is_documented(self, cli_text):
        missing = []
        for name, subparser in _walk_parser():
            for action in subparser._actions:
                if action.option_strings or isinstance(
                    action, argparse._SubParsersAction
                ):
                    continue
                if action.dest not in cli_text:
                    missing.append(f"{name} {action.dest}")
        assert not missing, f"positionals undocumented in docs/CLI.md: {missing}"


class TestMarkdownLinks:
    def test_all_intra_repo_links_resolve(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "check_links", REPO_ROOT / "tools" / "check_links.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        status = module.main(REPO_ROOT)
        output = capsys.readouterr().out
        assert status == 0, f"broken markdown links:\n{output}"
