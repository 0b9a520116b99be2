"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
List the available experiments::

    python -m repro list

Regenerate one figure at the default scale::

    python -m repro run fig13

Regenerate everything the paper reports (markdown to stdout)::

    python -m repro run all --scale full
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time


def _run_experiment(
    name: str,
    scale: str,
    json_path: str | None = None,
    jobs: int = 1,
    journal: str | None = None,
    fidelity: str = "timing",
) -> str:
    """Run one experiment by name; returns rendered markdown.

    When ``json_path`` is given, the raw points are also exported there
    (experiments that produce point lists only). ``jobs`` fans the
    experiment's simulation grid over that many worker processes
    (results are bit-identical to serial; see docs/PERFORMANCE.md).
    ``journal`` enables ``--resume``: completed sweep points are appended
    to that JSONL file and skipped on a re-run (see docs/CLI.md).
    ``fidelity`` selects the simulation fidelity for the fig13-17 sweep
    grids ("timing" or "full"; identical results either way — see
    docs/PERFORMANCE.md). Crash/recovery experiments (table1,
    fig-recovery, related) inspect recovered bytes and always run at
    full fidelity regardless of this flag.
    """
    from repro.experiments import (
        ablations,
        fig13,
        fig14,
        fig15,
        fig16,
        fig17,
        fig_channels,
        fig_recovery,
        related_work,
        table1,
    )
    from repro.experiments.export import export_json

    points = None
    if name == "table1":
        # Crash injection is a handful of sequential scenarios, not a
        # sweep grid — always serial (and never journaled: each scenario
        # is cheap and stateful crash plumbing doesn't round-trip).
        points = table1.run()
        rendered = table1.render(points)
    elif name == "related":
        rendered = related_work.render(
            related_work.run_runtime(scale, jobs=jobs, journal=journal),
            related_work.run_recovery(),
        )
    elif name == "fig13":
        points = fig13.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig13.render(points)
    elif name == "fig14":
        points = fig14.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig14.render(points)
    elif name == "fig15":
        points = fig15.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig15.render(points)
    elif name == "fig16":
        points = fig16.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig16.render(points)
    elif name == "fig17":
        points = fig17.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig17.render(points)
    elif name == "fig-channels":
        points = fig_channels.run(scale, jobs=jobs, journal=journal, fidelity=fidelity)
        rendered = fig_channels.render(points)
    elif name == "fig-recovery":
        points = fig_recovery.run(scale, jobs=jobs, journal=journal)
        rendered = fig_recovery.render(points)
    elif name == "ablations":
        rendered = ablations.render_all(scale, jobs=jobs, journal=journal)
    else:
        raise SystemExit(f"unknown experiment {name!r}; see `python -m repro list`")
    if json_path and points is not None:
        export_json(points, json_path, experiment=name)
    return rendered


EXPERIMENTS = (
    "table1",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig-channels",
    "fig-recovery",
    "ablations",
    "related",
)

_DESCRIPTIONS = {
    "table1": "Crash recoverability per transaction stage (crash injection)",
    "fig13": "Single-core txn latency: 5 workloads x 6 schemes x 3 sizes",
    "fig14": "Multi-programmed txn latency: 1/4/8 programs",
    "fig15": "NVM write requests normalised to Unsec",
    "fig16": "Write-queue length sensitivity (8..128 entries)",
    "fig17": "Counter-cache size sensitivity (1KB..4MB)",
    "fig-channels": "Channel-count sensitivity (1..8 channels at fixed banks)",
    "fig-recovery": "Section 6 recovery cost vs capacity/log/RSR/dirty fraction",
    "ablations": "Design-choice ablations (CWC policy, XBank offset, ...)",
    "related": "Section 6 related work: SCA / Osiris runtime + recovery cost",
}


def _sweep_flags() -> argparse.ArgumentParser:
    """The sweep-runner flags ``run`` and ``tune`` share (a parent
    parser; :func:`_sweep_session` applies them)."""
    flags = argparse.ArgumentParser(add_help=False)
    _add_jobs_flag(flags, "1", "the sweep")
    flags.add_argument(
        "--resume",
        default=None,
        metavar="JOURNAL",
        help="journal completed sweep points to this JSONL file and skip "
        "points already journaled there — an interrupted run re-run "
        "with the same journal is bit-identical to an uninterrupted one "
        "(see docs/CLI.md and docs/PERFORMANCE.md)",
    )
    flags.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry any sweep point whose worker exceeds this "
        "wall-clock budget (default: no timeout)",
    )
    flags.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="total execution attempts per sweep point before it is "
        "reported as failed (default 3; 1 disables retry)",
    )
    flags.add_argument(
        "--live",
        action="store_true",
        help="publish live fleet metrics (and repro_tune_* metrics under "
        "tune) while sweeping: a periodic status line on stderr, a JSONL "
        "snapshot/event stream, and a Prometheus text snapshot file "
        "(paths derive from --resume, else 'sweep.*'; analyse the "
        "stream with `repro sweep-report`)",
    )
    flags.add_argument(
        "--live-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between --live status/snapshot emissions (default 2)",
    )
    _add_outcome_store_flag(
        flags,
        "shares generated traces and recorded cache-walk outcome streams "
        "across processes: a 4-job sweep (or a second invocation) records "
        "each (trace, geometry) once fleet-wide, with bit-identical results",
    )
    return flags


def _add_jobs_flag(parser: argparse.ArgumentParser, default: str, role: str) -> None:
    """Declare ``--jobs`` (parsed by :func:`_parse_jobs`) on one command."""
    parser.add_argument(
        "--jobs",
        default=default,
        metavar="N",
        help=f"worker processes for {role} ('auto' = CPU count; default "
        f"{default}; results are bit-identical at any count)",
    )


def _add_fidelity_flag(parser: argparse.ArgumentParser, note: str = "") -> None:
    """Declare ``--fidelity`` (``SimConfig.fidelity``) on one command."""
    parser.add_argument(
        "--fidelity",
        choices=("timing", "full"),
        default="timing",
        help="simulation fidelity: 'timing' (default) skips functional "
        "byte-level crypto/NVM payloads for speed; 'full' carries payloads "
        f"end to end — results are bit-identical either way{note}",
    )


def _add_outcome_store_flag(parser: argparse.ArgumentParser, role: str) -> None:
    """Declare ``--outcome-store`` (an on-disk
    :class:`~repro.sim.outcome_store.OutcomeStore`) on one command."""
    parser.add_argument(
        "--outcome-store",
        default=None,
        metavar="DIR",
        help=f"directory of an on-disk outcome store that {role} (inspect "
        "the store with `repro cache`)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The complete argparse tree (also introspected by the docs-drift
    test, which asserts every subcommand and flag appears in docs/CLI.md)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SuperMem (MICRO 2019) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    sweep_flags = _sweep_flags()
    run_parser = sub.add_parser(
        "run", help="run experiment(s)", parents=[sweep_flags]
    )
    run_parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",),
        help="which paper artifact to regenerate",
    )
    run_parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="default",
        help="run size preset (default: default)",
    )
    run_parser.add_argument(
        "--output",
        default=None,
        help="write markdown to this file instead of stdout",
    )
    run_parser.add_argument(
        "--json",
        default=None,
        help="also export the raw experiment points as JSON (single experiment only)",
    )
    _add_fidelity_flag(run_parser, " (crash/recovery experiments always run full)")

    bench_parser = sub.add_parser(
        "bench-sweep",
        help="time the fig13 sweep serial vs cached vs parallel (BENCH_SWEEP.json)",
    )
    bench_parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="smoke",
        help="run size preset (default: smoke)",
    )
    _add_jobs_flag(bench_parser, "4", "the parallel leg")
    bench_parser.add_argument(
        "--output",
        default="BENCH_SWEEP.json",
        help="JSON output path (default: BENCH_SWEEP.json)",
    )
    _add_outcome_store_flag(
        bench_parser,
        "the shared-record/shared-outcomes legs use; default: a per-run "
        "temp directory",
    )

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or prune an on-disk outcome store (see --outcome-store)",
    )
    cache_parser.add_argument(
        "store_dir",
        help="outcome-store directory (as passed to --outcome-store)",
    )
    cache_parser.add_argument(
        "--prune",
        action="store_true",
        help="evict least-recently-used entries beyond the size cap "
        "(with --cap-mb 0: remove every entry)",
    )
    cache_parser.add_argument(
        "--cap-mb",
        type=int,
        default=None,
        metavar="MB",
        help="size cap in MiB for --prune and the reported headroom "
        "(default: the store's built-in 256 MiB cap)",
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the store summary as JSON instead of text",
    )

    trace_parser = sub.add_parser(
        "trace", help="generate a workload trace file (or summarise one)"
    )
    trace_parser.add_argument("workload", help="workload name, or a .smtr path with --summary")
    trace_parser.add_argument("--ops", type=int, default=200, help="transactions to record")
    trace_parser.add_argument("--request-size", type=int, default=1024)
    trace_parser.add_argument("--footprint", type=int, default=4 << 20)
    trace_parser.add_argument("--seed", type=int, default=1)
    trace_parser.add_argument("--output", default=None, help="trace file to write")
    trace_parser.add_argument(
        "--summary", action="store_true", help="summarise an existing trace file"
    )

    sim_parser = sub.add_parser("simulate", help="simulate one workload/scheme point")
    sim_parser.add_argument("workload")
    sim_parser.add_argument(
        "--scheme", default="supermem", help="unsec/wb/wt/wt+cwc/wt+xbank/supermem/sca/osiris/supermem+bmt"
    )
    sim_parser.add_argument("--ops", type=int, default=200)
    sim_parser.add_argument("--request-size", type=int, default=1024)
    sim_parser.add_argument("--footprint", type=int, default=4 << 20)
    sim_parser.add_argument("--seed", type=int, default=1)
    _add_fidelity_flag(sim_parser)
    sim_parser.add_argument(
        "--profile", action="store_true", help="print the bank/WQ profile"
    )
    sim_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="record an event trace and write Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    sim_parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="also write the event stream as compact JSONL",
    )
    sim_parser.add_argument(
        "--sample-ns",
        type=float,
        default=None,
        metavar="N",
        help="sample gauges (WQ occupancy, bank busy fraction, cc hit rate) "
        "every N simulated ns (implies tracing)",
    )
    sim_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the SimResult summary as JSON ('-' for stdout)",
    )

    report_parser = sub.add_parser(
        "trace-report",
        help="per-phase breakdown of a trace recorded with simulate --trace",
    )
    report_parser.add_argument("trace_file", help="Chrome trace JSON from --trace")
    report_parser.add_argument(
        "--buckets", type=int, default=12, help="number of time buckets (phases)"
    )

    recovery_parser = sub.add_parser(
        "recovery-report",
        help="price one post-crash recovery (timed model; see docs/RECOVERY.md)",
    )
    recovery_parser.add_argument(
        "scheme", help="recovery scheme: supermem/supermem+bmt/sca/osiris (path is derived)"
    )
    recovery_parser.add_argument(
        "--capacity", type=int, default=32 << 20, help="NVM capacity in bytes"
    )
    recovery_parser.add_argument(
        "--log-lines", type=int, default=256, help="undo-log region size in 64 B lines"
    )
    recovery_parser.add_argument(
        "--rsr",
        choices=("armed", "off"),
        default="off",
        help="crash mid page re-encryption so recovery must resume the RSR",
    )
    recovery_parser.add_argument(
        "--dirty-frac",
        type=float,
        default=0.0,
        help="fraction of pre-crash transactions with still-dirty counters "
        "(write-back schemes only)",
    )
    recovery_parser.add_argument(
        "--txns", type=int, default=16, help="transactions executed before the crash"
    )
    recovery_parser.add_argument("--request-size", type=int, default=256)
    recovery_parser.add_argument("--seed", type=int, default=1)
    recovery_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the cost report as JSON ('-' for stdout)",
    )
    recovery_parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the recovery phases as Chrome trace-event JSON",
    )

    sweep_report_parser = sub.add_parser(
        "sweep-report",
        help="fleet-health report from a `run --live` metrics JSONL stream",
    )
    sweep_report_parser.add_argument(
        "metrics_file",
        help="metrics stream from a --live sweep (e.g. sweep.metrics.jsonl)",
    )
    sweep_report_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="also summarise this resume journal (results/failures/torn tails)",
    )
    sweep_report_parser.add_argument(
        "--top", type=int, default=5, help="slowest points to list (default 5)"
    )

    tune_parser = sub.add_parser(
        "tune",
        help="search SimConfig knobs for the best fitness (docs/TUNING.md)",
        parents=[sweep_flags],
    )
    tune_parser.add_argument(
        "--workloads",
        default="array,queue",
        metavar="CSV",
        help="comma-separated workload mix the fitness sums over "
        "(default: array,queue)",
    )
    tune_parser.add_argument(
        "--scheme",
        default="supermem",
        help="scheme to tune under: unsec/wb/wt/wt+cwc/wt+xbank/supermem/"
        "sca/osiris (default: supermem)",
    )
    tune_parser.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="smoke",
        help="run size preset per candidate evaluation (default: smoke)",
    )
    tune_parser.add_argument(
        "--budget",
        default="small",
        metavar="N|small|medium|large",
        help="candidate evaluations including the step-0 baseline "
        "(small=8, medium=24, large=64, or any integer; default: small)",
    )
    tune_parser.add_argument(
        "--strategy",
        choices=("random", "hillclimb", "evolutionary"),
        default="hillclimb",
        help="search strategy (default: hillclimb)",
    )
    tune_parser.add_argument(
        "--fitness",
        choices=("run_time_ns", "bytes_per_persist", "weighted"),
        default="run_time_ns",
        help="objective to minimize (default: run_time_ns)",
    )
    tune_parser.add_argument(
        "--weight",
        type=float,
        default=0.5,
        metavar="W",
        help="weighted fitness: W x normalized run time + (1-W) x "
        "normalized bytes-per-persist (default 0.5)",
    )
    tune_parser.add_argument(
        "--seed", type=int, default=1, help="search RNG seed (default 1)"
    )
    tune_parser.add_argument(
        "--request-size", type=int, default=1024, help="per-point request size"
    )
    tune_parser.add_argument(
        "--surrogate-first",
        action="store_true",
        help="screen candidates with an online knob model before paying "
        "for simulation; prunes points predicted worse than "
        "best x --prune-margin (see docs/TUNING.md for caveats)",
    )
    tune_parser.add_argument(
        "--surrogate-model",
        default=None,
        metavar="PATH",
        help="anchor the screen on a fitted `repro surrogate fit` model "
        "(run_time_ns fitness only; logs measured-vs-predicted "
        "residuals per accepted point)",
    )
    tune_parser.add_argument(
        "--prune-margin",
        type=float,
        default=1.25,
        metavar="M",
        help="surrogate screen prunes candidates predicted worse than "
        "best x M (default 1.25)",
    )
    tune_parser.add_argument(
        "--trajectory",
        default="TUNE_TRAJECTORY.jsonl",
        metavar="PATH",
        help="per-step search trajectory JSONL (default: "
        "TUNE_TRAJECTORY.jsonl; input of `repro tune-report`)",
    )
    tune_parser.add_argument(
        "--recommend",
        default="RECOMMENDED_CONFIG.json",
        metavar="PATH",
        help="best-found config export (default: RECOMMENDED_CONFIG.json)",
    )

    tune_report_parser = sub.add_parser(
        "tune-report",
        help="render best point / trajectory / times-to-completion from a "
        "tune trajectory file",
    )
    tune_report_parser.add_argument(
        "trajectory_file",
        help="trajectory JSONL written by `repro tune --trajectory`",
    )
    tune_report_parser.add_argument(
        "--top", type=int, default=5, help="ranked points to list (default 5)"
    )
    tune_report_parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also export the report payload as JSON ('-' for stdout)",
    )

    surrogate_parser = sub.add_parser(
        "surrogate",
        help="fit/evaluate the analytical run-time surrogate model",
    )
    surrogate_parser.add_argument(
        "mode",
        choices=("fit", "predict", "validate"),
        help="fit: train on the fig13 grid; predict: closed-form per-scheme "
        "estimates for one cell; validate: check a model against a journal",
    )
    surrogate_parser.add_argument(
        "--scale", default="smoke", help="experiment scale of the grid"
    )
    _add_jobs_flag(surrogate_parser, "1", "the fit/validate sweep")
    surrogate_parser.add_argument(
        "--model",
        default="surrogate.json",
        metavar="PATH",
        help="model file to write (fit) or read (predict/validate)",
    )
    surrogate_parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="validate: sweep journal to cross-check predictions against "
        "(omitted: re-simulate the grid)",
    )
    surrogate_parser.add_argument(
        "--workload", default="btree", help="predict: workload name"
    )
    surrogate_parser.add_argument(
        "--request-size", type=int, default=1024, help="predict: request size"
    )
    surrogate_parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the validation/prediction report as JSON",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace-report":
        return _cmd_trace_report(args)
    if args.command == "recovery-report":
        return _cmd_recovery_report(args)
    if args.command == "bench-sweep":
        return _cmd_bench_sweep(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "sweep-report":
        from repro.experiments.sweep_report import render_sweep_report_file

        print(
            render_sweep_report_file(
                args.metrics_file, top=args.top, journal_path=args.journal
            )
        )
        return 0
    if args.command == "surrogate":
        return _cmd_surrogate(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "tune-report":
        return _cmd_tune_report(args)

    if args.command == "list":
        for name in EXPERIMENTS:
            print(f"{name:10s} {_DESCRIPTIONS[name]}")
        return 0

    names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
    json_path = args.json if len(names) == 1 else None
    sections = []
    with _sweep_session(args) as jobs:
        for name in names:
            started = time.time()
            print(
                f"[repro] running {name} (scale={args.scale}, jobs={jobs})...",
                file=sys.stderr,
            )
            sections.append(
                _run_experiment(
                    name,
                    args.scale,
                    json_path=json_path,
                    jobs=jobs,
                    journal=args.resume,
                    fidelity=args.fidelity,
                )
            )
            print(
                f"[repro] {name} done in {time.time() - started:.1f}s",
                file=sys.stderr,
            )
            _report_sweep_health(name)
    output = "\n".join(sections)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(output)
        print(f"[repro] wrote {args.output}", file=sys.stderr)
    else:
        print(output)
    return 0


@contextlib.contextmanager
def _sweep_session(args):
    """Apply the shared sweep flags (:func:`_sweep_flags`) for one
    command; yields the parsed ``--jobs``.

    ``--point-timeout``/``--retries`` become the runner's default
    :class:`~repro.experiments.runner.RunnerPolicy`, ``--outcome-store``
    the experiments' default base config (every spec, and through
    pickling every worker, carries the path), and ``--live`` stands up a
    real registry (installed as the runner default) with a JSONL event
    stream and a :class:`~repro.obs.live.LiveReporter` rewriting the
    ``.prom`` snapshot until the session ends. Without ``--live`` the
    runner keeps its zero-overhead ``NULL_METRICS`` default.
    """
    from repro.experiments.common import set_default_outcome_store
    from repro.experiments.runner import (
        RunnerPolicy,
        set_default_metrics,
        set_default_policy,
    )

    jobs = _parse_jobs(args.jobs)
    if args.retries < 1:
        raise SystemExit(f"--retries must be >= 1, got {args.retries}")
    set_default_policy(
        RunnerPolicy(point_timeout_s=args.point_timeout, max_attempts=args.retries)
    )
    set_default_outcome_store(args.outcome_store)
    if not args.live:
        yield jobs
        return
    from repro.obs.live import LiveReporter
    from repro.obs.metrics import MetricsRegistry, MetricsStream

    base = args.resume if args.resume else "sweep"
    stream_path = f"{base}.metrics.jsonl"
    prom_path = f"{base}.prom"
    registry = MetricsRegistry(stream=MetricsStream(stream_path))
    set_default_metrics(registry)
    reporter = LiveReporter(
        registry,
        interval_s=args.live_interval,
        label=getattr(args, "experiment", args.command),
        prom_path=prom_path,
    ).start()
    print(
        f"[repro] live metrics: stream={stream_path} prom={prom_path} "
        f"(every {args.live_interval:g}s)",
        file=sys.stderr,
    )
    try:
        yield jobs
    finally:
        reporter.stop()


def _report_sweep_health(name: str) -> None:
    """Echo the last sweep's retry/resume/failure accounting to stderr."""
    from repro.experiments.runner import last_report

    report = last_report()
    if report is None:
        return
    if report.retries or report.timeouts or report.resumed or report.serial_fallbacks:
        print(
            f"[repro] {name}: resumed={report.resumed} retries={report.retries} "
            f"timeouts={report.timeouts} serial_fallbacks={report.serial_fallbacks}",
            file=sys.stderr,
        )


def _parse_jobs(value: str) -> int:
    """Parse a ``--jobs`` value: a positive integer or ``auto``."""
    if value == "auto":
        from repro.experiments.runner import default_jobs

        return default_jobs()
    try:
        jobs = int(value)
    except ValueError:
        raise SystemExit(f"--jobs expects a positive integer or 'auto', got {value!r}")
    if jobs < 1:
        raise SystemExit(f"--jobs must be >= 1, got {jobs}")
    return jobs


def _cmd_bench_sweep(args) -> int:
    from repro.experiments.bench import format_summary, run_sweep_benchmark

    jobs = _parse_jobs(args.jobs)
    print(
        f"[repro] benchmarking fig13 sweep (scale={args.scale}, jobs={jobs})...",
        file=sys.stderr,
    )
    payload = run_sweep_benchmark(
        scale=args.scale,
        jobs=jobs,
        output=args.output,
        outcome_store=args.outcome_store,
    )
    print(format_summary(payload))
    print(f"[repro] wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_cache(args) -> int:
    import json

    from repro.sim.outcome_store import OutcomeStore

    cap_bytes = args.cap_mb << 20 if args.cap_mb is not None else None
    store = OutcomeStore(args.store_dir, cap_bytes=cap_bytes)
    pruned = store.gc() if args.prune else 0
    stats = store.stats()
    if args.prune:
        stats["pruned"] = pruned
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"outcome store: {stats['root']}")
    print(
        f"  {stats['entries']} entries, {stats['bytes']} bytes "
        f"(cap {stats['cap_bytes']})"
    )
    for kind, bucket in sorted(stats["by_kind"].items()):
        print(f"  {kind:>9}: {bucket['entries']} entries, {bucket['bytes']} bytes")
    if args.prune:
        print(f"  pruned {pruned} entries")
    return 0


def _cmd_surrogate(args) -> int:
    import json

    from repro.sim import surrogate

    def emit(report) -> None:
        payload = json.dumps(report, indent=2, sort_keys=True)
        print(payload)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(payload)
                fh.write("\n")
            print(f"[repro] wrote {args.output}", file=sys.stderr)

    if args.mode == "fit":
        jobs = _parse_jobs(args.jobs)
        print(
            f"[repro] fitting surrogate on the fig13 grid "
            f"(scale={args.scale}, jobs={jobs})...",
            file=sys.stderr,
        )
        pairs = surrogate.collect_training_pairs(args.scale, jobs=jobs)
        model = surrogate.fit_surrogate(pairs, scale=args.scale)
        model.save(args.model)
        print(f"[repro] wrote {args.model}", file=sys.stderr)
        emit(model.validation)
        return 0 if model.validation["within_bounds"] else 1

    model = surrogate.SurrogateModel.load(args.model)
    if args.mode == "predict":
        predictions = surrogate.predict_grid(
            model, args.workload, args.request_size, scale=args.scale
        )
        emit(
            {
                "workload": args.workload,
                "request_size": args.request_size,
                "scale": args.scale,
                "predicted_total_time_ns": {
                    scheme: round(value, 1)
                    for scheme, value in predictions.items()
                },
            }
        )
        return 0

    # validate
    if args.journal:
        report = surrogate.validate_against_journal(
            model, args.journal, scale=args.scale
        )
    else:
        pairs = surrogate.collect_training_pairs(
            args.scale, jobs=_parse_jobs(args.jobs)
        )
        report = surrogate.validate_pairs(model, pairs)
    emit(report)
    return 0 if report["within_bounds"] else 1


def _cmd_tune(args) -> int:
    import json

    from repro.core.schemes import Scheme
    from repro.experiments.runner import default_metrics
    from repro.experiments.tuner import resolve_budget, tune

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
    if not workloads:
        raise SystemExit("--workloads needs at least one workload name")
    budget = resolve_budget(args.budget)
    surrogate_model = None
    if args.surrogate_model:
        from repro.sim.surrogate import SurrogateModel

        surrogate_model = SurrogateModel.load(args.surrogate_model)

    with _sweep_session(args) as jobs:
        print(
            f"[repro] tuning {'+'.join(workloads)} under {scheme.label} "
            f"(strategy={args.strategy}, fitness={args.fitness}, "
            f"budget={budget}, scale={args.scale}, seed={args.seed}, "
            f"jobs={jobs})...",
            file=sys.stderr,
        )
        result = tune(
            workloads,
            scheme=scheme,
            budget=budget,
            strategy=args.strategy,
            fitness=args.fitness,
            weight=args.weight,
            seed=args.seed,
            scale=args.scale,
            request_size=args.request_size,
            jobs=jobs,
            journal=args.resume,
            surrogate_model=surrogate_model,
            surrogate_first=args.surrogate_first or bool(surrogate_model),
            prune_margin=args.prune_margin,
            trajectory=args.trajectory,
            metrics=default_metrics(),
        )

    with open(args.recommend, "w", encoding="utf-8") as fh:
        json.dump(result.recommended(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"[repro] wrote {args.trajectory}", file=sys.stderr)
    print(f"[repro] wrote {args.recommend}", file=sys.stderr)

    from repro.experiments.tuner import describe_candidate

    baseline = result.steps[0].candidate if result.steps else {}
    print(
        f"best ({args.fitness}): {result.best_fitness:.6g} at step "
        f"{result.best_step} — "
        f"{describe_candidate(result.best_candidate, baseline)}"
    )
    print(
        f"baseline: {result.baseline_fitness:.6g} "
        f"(improvement {result.improvement:.3f}x); "
        f"{result.executed_points} points executed, "
        f"{result.resumed_points} replayed from the journal, "
        f"{result.pruned_steps} candidates pruned; "
        f"trajectory digest {result.digest[:16]}"
    )
    return 0


def _cmd_tune_report(args) -> int:
    import json

    from repro.experiments.tuner import (
        load_trajectory,
        render_tune_report,
        report_payload,
    )

    header, steps, final = load_trajectory(args.trajectory_file)
    print(render_tune_report(header, steps, final, top=args.top))
    if args.json:
        payload = json.dumps(
            report_payload(header, steps, final), indent=2, sort_keys=True
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
                fh.write("\n")
            print(f"[repro] wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    from repro.sim.tracefile import load_trace, save_trace, trace_summary
    from repro.workloads.generator import generate_trace

    if args.summary:
        ops = load_trace(args.workload)
        for key, value in trace_summary(ops).items():
            print(f"{key}: {value}")
        return 0
    trace = generate_trace(
        args.workload,
        n_ops=args.ops,
        request_size=args.request_size,
        footprint=args.footprint,
        seed=args.seed,
    )
    output = args.output or f"{args.workload}.smtr"
    size = save_trace(output, trace.ops)
    print(f"wrote {output}: {len(trace.ops)} ops, {size} bytes")
    return 0


def _cmd_simulate(args) -> int:
    import json

    from repro.core.schemes import Scheme
    from repro.obs import Tracer
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.sim.profiling import profile_run
    from repro.sim.simulator import simulate_workload

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    tracer = None
    if args.trace or args.trace_jsonl or args.sample_ns is not None:
        tracer = Tracer(sample_interval_ns=args.sample_ns)
    result = simulate_workload(
        args.workload,
        scheme,
        n_ops=args.ops,
        request_size=args.request_size,
        footprint=args.footprint,
        seed=args.seed,
        tracer=tracer,
        fidelity=args.fidelity,
    )
    print(f"{args.workload} under {scheme.label}: {result.summary()}")
    print(f"total time: {result.total_time_ns:.0f} ns")
    if args.profile:
        print(profile_run(result).format())
    if tracer is not None and args.trace:
        n_events = write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace}: {n_events} trace events", file=sys.stderr)
    if tracer is not None and args.trace_jsonl:
        n_events = write_jsonl(tracer, args.trace_jsonl)
        print(f"wrote {args.trace_jsonl}: {n_events} events", file=sys.stderr)
    if args.json:
        payload = json.dumps(result.to_dict(), indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
                fh.write("\n")
            print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _cmd_trace_report(args) -> int:
    from repro.obs.report import render_report_file

    print(render_report_file(args.trace_file, n_buckets=args.buckets))
    return 0


def _cmd_recovery_report(args) -> int:
    import json

    from repro.common.config import SimConfig, MemoryConfig
    from repro.core.recovery_cost import recovery_trace_events, run_recovery_scenario
    from repro.core.schemes import Scheme

    try:
        scheme = Scheme(args.scheme)
    except ValueError:
        raise SystemExit(
            f"unknown scheme {args.scheme!r}; expected one of "
            f"{[s.value for s in Scheme]}"
        )
    base = SimConfig(memory=MemoryConfig(capacity=args.capacity))
    report, recovered, shadow = run_recovery_scenario(
        scheme,
        base_config=base,
        n_txns=args.txns,
        request_size=args.request_size,
        seed=args.seed,
        log_lines=args.log_lines,
        rsr=args.rsr,
        dirty_frac=args.dirty_frac,
    )
    mismatches = recovered.audit_against_shadow(shadow)
    print(f"{scheme.label} recovery ({report.path} path): {report.time_ns:.0f} ns")
    for name, start, end in report.phases:
        print(f"  {name:14s} {end - start:12.1f} ns")
    print(
        f"  reads: {report.nvm_reads} ({report.counter_line_reads} counter), "
        f"writes: {report.nvm_writes}, aes: {report.aes_ops}, "
        f"trials: {report.trial_decryptions}, replay: {report.replay_writes}"
    )
    print(f"  audit: {len(mismatches)} mismatching lines of {len(shadow)} flushed")
    if args.trace:
        from repro.obs import Tracer
        from repro.obs.export import write_chrome_trace

        tracer = Tracer()
        tracer.events.extend(recovery_trace_events(report))
        n_events = write_chrome_trace(tracer, args.trace)
        print(f"wrote {args.trace}: {n_events} trace events", file=sys.stderr)
    if args.json:
        payload = report.to_dict()
        payload["scheme"] = scheme.label
        payload["audit_mismatches"] = len(mismatches)
        text = json.dumps(payload, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text)
                fh.write("\n")
            print(f"wrote {args.json}", file=sys.stderr)
    return len(mismatches) and 1 or 0


if __name__ == "__main__":
    raise SystemExit(main())
