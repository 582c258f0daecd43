"""Command-line interface: ``rcast-repro`` / ``python -m repro.cli``.

Subcommands:

* ``run``      — one simulation, printing the run summary; ``--trace-out``
  streams a structured JSONL trace (``--trace-categories`` filters it) and
  ``--json-out`` exports metrics + run manifest (+ ``--sample-interval``
  timeline);
* ``profile``  — run one simulation under :mod:`cProfile` and print the
  self time of each layer (``sim``, ``phy``, ``mac``, ``routing``, ...)
  and of the ``--top`` functions;
* ``table1``   — the scheme-behaviour comparison (Table 1);
* ``fig5`` .. ``fig9`` — regenerate one figure of the paper;
* ``ablation`` — the extension studies (factors / tap / rreq);
* ``resilience`` — scheme degradation under injected crashes and loss;
* ``adaptive`` — adaptive receiver-side P_R policies (measured-degree /
  energy-budget / bandit) vs the paper's fixed 1/n; ``run``, ``sweep``,
  ``fig7``, ``lifetime`` and ``resilience`` take ``--overhearing-policy``
  to apply one policy directly;
* ``spans``    — assemble packet flight-recorder spans (originate ->
  route discovery -> per-hop MAC attempts -> delivery/drop) from a
  recorded JSONL trace, as a sortable table and/or JSON;
* ``lint``     — rcast-lint determinism & protocol-invariant checks.

The experiment commands (``table1`` .. ``adaptive``, ``ablation``) are the
rows of :data:`repro.experiments.evaluation.EXPERIMENTS`; each prints its
series and then its shape verdicts.

``run`` metrics always carry fixed-memory delay / energy-per-bit
distribution summaries.  Its telemetry knobs: ``--live`` renders an
in-place progress line, ``--telemetry-out`` streams progress records as
JSONL, and ``--trace-rotate`` size-rotates (optionally gzipped) trace
output.  ``sweep`` shares ``--live``/``--telemetry-out``
at replication granularity.

``run --faults plan.json`` injects a deterministic fault plan (see
:mod:`repro.faults.plan` for the JSON format).

``--scale {smoke,bench,paper}`` selects the fidelity/time trade-off.
``--workers N`` shards replications across N worker processes (0 = all
cores; results are bit-identical for any worker count); ``--json-out``
writes the result object as machine-readable JSON.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

from repro.core.adaptive import OVERHEARING_POLICIES
from repro.experiments.evaluation import EXPERIMENTS, run_experiments
from repro.experiments.scenarios import SCALES as _SCALES
from repro.experiments.scenarios import ExperimentScale
from repro.errors import ConfigurationError
from repro.network import SCHEMES, SimulationConfig

if TYPE_CHECKING:
    from repro.experiments.parallel import ProgressEvent

#: the ``ablation <study>`` experiments; every other experiment of the
#: table is a subcommand of its own.
_ABLATIONS = tuple(name.split("-", 1)[1] for name in EXPERIMENTS
                   if name.startswith("ablation-"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcast-repro",
        description="Rcast (ICDCS 2005) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one simulation")
    _add_sim_args(run_p)
    run_p.add_argument("--faults", dest="faults", default=None,
                       help="JSON fault-plan file to inject "
                            "(crashes, packet loss, noise windows)")
    run_p.add_argument("--trace-out", dest="trace_out", default=None,
                       help="write a structured JSONL trace to this file "
                            "(a .gz suffix compresses transparently)")
    run_p.add_argument("--trace-categories", dest="trace_categories",
                       default=None,
                       help="comma-separated trace categories to keep "
                            "(e.g. atim,psm; default: all)")
    run_p.add_argument("--trace-rotate", dest="trace_rotate", type=int,
                       default=None, metavar="BYTES",
                       help="rotate the trace file every BYTES uncompressed "
                            "bytes (numbered parts next to --trace-out)")
    run_p.add_argument("--live", action="store_true",
                       help="render an in-place live progress line "
                            "(virtual time, ev/s, ETA, fault counts)")
    run_p.add_argument("--telemetry-out", dest="telemetry_out", default=None,
                       help="stream live telemetry records to this JSONL "
                            "file (machine-readable --live feed)")
    run_p.add_argument("--sample-interval", dest="sample_interval",
                       type=float, default=0.0,
                       help="record a timeline snapshot every N sim seconds "
                            "(0 = off; exported via --json-out)")
    run_p.add_argument("--json-out", dest="json_out", default=None,
                       help="write metrics + run manifest (+ timeline) JSON")
    run_p.add_argument("--sanitize", action="store_true",
                       help="run under the determinism sanitizer (DSan): "
                            "per-stream draw ledgers, tie-key detector, "
                            "hot-path order canaries")
    run_p.add_argument("--sanitize-compare", dest="sanitize_compare",
                       action="store_true",
                       help="run the seed twice under the sanitizer and "
                            "diff the two ledgers (implies --sanitize; "
                            "exit 1 on divergence)")
    run_p.add_argument("--sanitize-out", dest="sanitize_out", default=None,
                       help="write the sanitizer JSON report to this file")

    profile_p = sub.add_parser(
        "profile", help="self time by layer of one simulation (cProfile)"
    )
    _add_sim_args(profile_p)
    profile_p.add_argument("--top", type=int, default=10,
                           help="functions to show, by self time (default 10)")
    profile_p.add_argument("--json-out", dest="json_out", default=None,
                           help="write the profile report as JSON")

    for name, experiment in EXPERIMENTS.items():
        if name.startswith("ablation-"):
            continue
        fig_p = sub.add_parser(name, help=f"reproduce {name}")
        fig_p.add_argument("--scale", choices=_SCALES, default="bench")
        fig_p.add_argument("--seed", type=int, default=1)
        if experiment.policy_aware:
            fig_p.add_argument("--overhearing-policy",
                               dest="overhearing_policy",
                               choices=OVERHEARING_POLICIES, default="fixed",
                               help="receiver-side P_R policy for the rcast "
                                    "column (default fixed = the paper's 1/n)")
        _add_parallel_args(fig_p)

    abl_p = sub.add_parser("ablation", help="run an ablation study")
    abl_p.add_argument("study", choices=_ABLATIONS)
    abl_p.add_argument("--scale", choices=_SCALES, default="bench")
    abl_p.add_argument("--seed", type=int, default=1)
    _add_parallel_args(abl_p)

    sweep_p = sub.add_parser(
        "sweep", help="custom (scheme x rate x scenario) sweep with export"
    )
    sweep_p.add_argument("--schemes", default="ieee80211,odpm,rcast",
                         help="comma-separated scheme keys")
    sweep_p.add_argument("--rates", default=None,
                         help="comma-separated packet rates (default: scale's)")
    sweep_p.add_argument("--scenarios", default="mobile,static",
                         help="comma-separated from {mobile,static}")
    sweep_p.add_argument("--scale", choices=_SCALES, default="bench")
    sweep_p.add_argument("--seed", type=int, default=1)
    sweep_p.add_argument("--overhearing-policy", dest="overhearing_policy",
                         choices=OVERHEARING_POLICIES, default="fixed",
                         help="receiver-side P_R policy applied to every "
                              "cell (default fixed = the paper's 1/n)")
    sweep_p.add_argument("--json", "--json-out", dest="json_path",
                         default=None,
                         help="write the full sweep (incl. vectors) as JSON")
    sweep_p.add_argument("--csv", dest="csv_path", default=None,
                         help="write the scalar metrics as CSV")
    sweep_p.add_argument("--workers", type=_workers_type, default=1,
                         help="worker processes (0 = all cores; default 1)")
    sweep_p.add_argument("--live", action="store_true",
                         help="render an in-place replication progress line "
                              "(ev/s, ETA, worker utilization, fault counts)")
    sweep_p.add_argument("--telemetry-out", dest="telemetry_out",
                         default=None,
                         help="stream sweep progress events to this JSONL "
                              "file (machine-readable --live feed)")

    spans_p = sub.add_parser(
        "spans", help="assemble packet flight-recorder spans from a "
                      "JSONL trace (originate -> discovery -> per-hop MAC "
                      "attempts -> delivery/drop)"
    )
    spans_p.add_argument("traces", nargs="+",
                         help="trace JSONL file(s); .gz and rotated parts "
                              "are read transparently")
    spans_p.add_argument("--sort", default="uid",
                         help="table sort key: uid|latency|energy|"
                              "attempts|hops (default uid)")
    spans_p.add_argument("--top", type=int, default=20,
                         help="rows to print (default 20; 0 = all)")
    spans_p.add_argument("--status", choices=("all", "delivered", "dropped"),
                         default="all",
                         help="restrict the table to one outcome")
    spans_p.add_argument("--json-out", dest="json_out", default=None,
                         help="write every flight (plus summary) as JSON")

    lint_p = sub.add_parser(
        "lint",
        help="run rcast-lint (determinism & protocol-invariant checks)",
    )
    from repro.analysis.lint.runner import add_lint_arguments

    add_lint_arguments(lint_p)
    return parser


def _workers_type(value: str) -> int:
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if workers < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = all cores)")
    return workers


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=_workers_type, default=1,
                        help="worker processes (0 = all cores; default 1)")
    parser.add_argument("--json-out", dest="json_out", default=None,
                        help="write the result object as JSON")


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    """Single-simulation arguments shared by ``run`` and ``profile``."""
    parser.add_argument("--scheme", choices=SCHEMES, default="rcast")
    parser.add_argument("--nodes", type=int, default=100)
    parser.add_argument("--rate", type=float, default=0.4)
    parser.add_argument("--sim-time", type=float, default=120.0)
    parser.add_argument("--connections", type=int, default=20)
    parser.add_argument("--pause", type=float, default=600.0)
    parser.add_argument("--speed", type=float, default=20.0)
    parser.add_argument("--static", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--overhearing-policy", dest="overhearing_policy",
                        choices=OVERHEARING_POLICIES, default="fixed",
                        help="receiver-side P_R policy: fixed (the paper's "
                             "1/n) or an adaptive policy "
                             "(degree/energy/bandit)")
    parser.add_argument("--arena-w", dest="arena_w", type=float, default=None,
                        metavar="METERS",
                        help="arena width (default: the paper's 1500 m; "
                             "scale the area with --nodes to hold the "
                             "paper's density at 1k+ nodes)")
    parser.add_argument("--arena-h", dest="arena_h", type=float, default=None,
                        metavar="METERS",
                        help="arena height (default: the paper's 300 m)")


def _config_from_args(args: argparse.Namespace) -> SimulationConfig:
    arena: Dict[str, float] = {}
    if args.arena_w is not None:
        arena["arena_w"] = args.arena_w
    if args.arena_h is not None:
        arena["arena_h"] = args.arena_h
    return SimulationConfig(
        scheme=args.scheme,
        num_nodes=args.nodes,
        packet_rate=args.rate,
        sim_time=args.sim_time,
        num_connections=args.connections,
        mobility="static" if args.static else "waypoint",
        max_speed=args.speed,
        pause_time=args.pause,
        seed=args.seed,
        overhearing_policy=args.overhearing_policy,
        **arena,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    import json as json_module

    from dataclasses import replace

    from repro.faults.plan import FaultPlan
    from repro.network import Network, build_network
    from repro.obs.live import LiveRunMonitor, TelemetryWriter
    from repro.obs.manifest import RunManifest, config_hash
    from repro.obs.metrics import TimelineRecorder
    from repro.obs.sinks import FilteredSink, JsonlSink
    from repro.sim.trace import NULL_TRACE, TRACE_CATEGORIES, TraceSink

    config = _config_from_args(args)
    if args.faults:
        try:
            config = replace(config, faults=FaultPlan.load(args.faults))
        except ConfigurationError as exc:
            raise SystemExit(f"error: --faults: {exc}")
    # perf_counter, not time.time(): monotonic, immune to NTP clock steps.
    # This module is on the rcast-lint R002 allowlist because reporting
    # elapsed wall time to a human is the one legitimate wall-clock use —
    # it never feeds back into simulated behaviour.
    started = time.perf_counter()
    jsonl: Optional[JsonlSink] = None
    trace: TraceSink = NULL_TRACE
    if args.trace_out:
        categories = [c.strip() for c in
                      (args.trace_categories or "").split(",") if c.strip()]
        unknown = sorted(set(categories) - set(TRACE_CATEGORIES))
        if unknown:
            # Before the sink opens (and truncates) the output file.
            raise SystemExit(
                f"--trace-categories: unknown {unknown}; known categories: "
                f"{', '.join(TRACE_CATEGORIES)}"
            )
        try:
            jsonl = JsonlSink(args.trace_out, rotate_bytes=args.trace_rotate)
        except ValueError as exc:  # a non-positive --trace-rotate
            raise SystemExit(f"error: --trace-rotate: {exc}")
        trace = (FilteredSink(jsonl, categories=categories)
                 if categories else jsonl)
    recorder = (TimelineRecorder(args.sample_interval)
                if args.sample_interval > 0 else None)
    telemetry = (TelemetryWriter(args.telemetry_out)
                 if args.telemetry_out else None)
    live = (LiveRunMonitor(config.sim_time, telemetry=telemetry)
            if (args.live or telemetry is not None) else None)
    # `is not None`, not truthiness: an empty TimelineRecorder has
    # len() == 0 and would drop its own observer before the first sample.
    observers = [obs for obs in
                 (recorder.observe if recorder is not None else None,
                  live.observe if live is not None else None)
                 if obs is not None]
    sanitize = bool(args.sanitize or args.sanitize_compare
                    or args.sanitize_out)
    try:
        network = build_network(config, trace=trace)
        if observers:
            # The timeline's interval wins when both are active; the live
            # line just redraws on the same ticks (it rate-limits itself).
            period = (args.sample_interval if args.sample_interval > 0
                      else 1.0)

            def observe(net: Network) -> None:
                for obs in observers:
                    obs(net)

            metrics = network.run(observer=observe, observe_period=period,
                                  sanitize=sanitize)
        else:
            metrics = network.run(sanitize=sanitize)
    finally:
        if live is not None:
            live.finish()
        if telemetry is not None:
            telemetry.close()
        if jsonl is not None:
            jsonl.close()
    wall_time = time.perf_counter() - started
    print(metrics.describe())
    print(f"transmissions: {metrics.transmissions}")
    print(f"drops: {metrics.drop_reasons}")
    if metrics.fault_counts:
        print(f"faults: {metrics.fault_counts}")
    print(f"wall time: {wall_time:.1f}s")
    if jsonl is not None:
        print(f"trace: {jsonl.written} records -> {jsonl.path}")
    sanitizer_failed = False
    if sanitize:
        sanitizer_failed = _report_sanitizer(args, config, network)
    if args.json_out:
        manifest = RunManifest(
            scheme=config.scheme, seed=config.seed,
            config_hash=config_hash(config), wall_time=wall_time,
            events_processed=metrics.events_processed,
            fault_counts=metrics.fault_counts or None,
        )
        payload: Dict[str, Any] = {
            "metrics": metrics.to_dict(),
            "manifest": manifest.to_dict(),
        }
        if recorder is not None:
            payload["timeline"] = recorder.to_dict()
        Path(args.json_out).write_text(
            json_module.dumps(payload, indent=2))
        print(f"wrote {args.json_out}")
    return 1 if sanitizer_failed else 0


def _report_sanitizer(args: argparse.Namespace, config: SimulationConfig,
                      network: Any) -> bool:
    """Print/export sanitizer results; True when the run should fail.

    ``--sanitize-compare`` rebuilds the same config and runs it a second
    time under the sanitizer (no trace/observer attached — the ledgers
    and canaries are what is being compared), then diffs the two reports.
    """
    import json as json_module

    from repro.analysis.sanitizer import diff_reports
    from repro.network import build_network

    report = network.sanitizer_report
    assert report is not None
    total_draws = sum(int(entry["draws"])  # type: ignore[call-overload]
                      for _, entry in sorted(report.streams.items()))
    print(f"sanitizer: {len(report.streams)} streams, {total_draws} draws, "
          f"{report.tied_events} tied events, "
          f"{len(report.findings)} finding(s)")
    for finding in report.findings:
        print(f"  [{finding.kind}] t={finding.time:.6f} "
              f"n{finding.node} {finding.detail}")
    failed = bool(report.findings)
    payload: Dict[str, Any] = report.to_dict()
    if args.sanitize_compare:
        rerun = build_network(config)
        rerun.run(sanitize=True)
        second = rerun.sanitizer_report
        assert second is not None
        diffs = diff_reports(report, second)
        if diffs:
            print("sanitize-compare: LEDGERS DIVERGED")
            for line in diffs:
                print(f"  {line}")
            failed = True
        else:
            print("sanitize-compare: ledgers identical across reruns")
        failed = failed or bool(second.findings)
        payload = {"first": payload, "second": second.to_dict(),
                   "diffs": diffs}
    if args.sanitize_out:
        Path(args.sanitize_out).write_text(
            json_module.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {args.sanitize_out}")
    return failed


def _cmd_profile(args: argparse.Namespace) -> int:
    import cProfile
    import json as json_module

    from repro.network import build_network
    from repro.obs.profiler import fold, format_profile

    network = build_network(_config_from_args(args))
    profile = cProfile.Profile()
    metrics = profile.runcall(network.run)
    profile.create_stats()
    report = fold(profile.stats, args.top)
    print(metrics.describe())
    print()
    print(format_profile(report))
    if args.json_out:
        Path(args.json_out).write_text(
            json_module.dumps(report, indent=2))
        print(f"wrote {args.json_out}")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs.spans import (
        SORT_KEYS,
        flights_to_json,
        format_flights,
        load_flights,
    )

    if args.sort not in SORT_KEYS:
        raise SystemExit(
            f"--sort: unknown key {args.sort!r}; choose from "
            f"{', '.join(SORT_KEYS)}")
    flights = load_flights(args.traces)
    if args.status != "all":
        shown = [f for f in flights if f.status == args.status]
    else:
        shown = flights
    top = args.top if args.top > 0 else None
    print(format_flights(shown, sort=args.sort, top=top))
    if args.json_out:
        print(f"wrote {flights_to_json(flights, args.json_out)}")
    return 0


def _on_event(event: "ProgressEvent") -> None:
    """Structured progress -> stderr: the summary of a pooled run."""
    from repro.obs.live import format_grid_summary

    stats = event.stats
    if event.kind == "grid-finish" and stats is not None and stats.workers > 1:
        print(f"  .. grid done: {format_grid_summary(stats)}",
              file=sys.stderr)


def _on_experiment_event(event: "ProgressEvent") -> None:
    """One stderr line per finished cell, then :func:`_on_event`."""
    if event.kind == "cell-finish":
        _, cell = event.cell
        print(f"  .. [{event.completed_items}/{event.total_items}] {cell}",
              file=sys.stderr)
    _on_event(event)


def _cmd_sweep(args: argparse.Namespace, scale: ExperimentScale,
               progress: Callable[[str], None]) -> int:
    from repro.experiments.export import write_sweep_csv, write_sweep_json
    from repro.experiments.parallel import ProgressEvent
    from repro.experiments.sweep import sweep as run_sweep
    from repro.metrics.report import format_series
    from repro.obs.live import LiveSweepMonitor, TelemetryWriter

    schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
    try:
        rates = ([float(r) for r in args.rates.split(",")]
                 if args.rates else None)
    except ValueError:
        raise ConfigurationError(f"--rates: expected comma-separated "
                                 f"numbers, got {args.rates!r}")
    scenario_names = {s.strip() for s in args.scenarios.split(",")}
    unknown = scenario_names - {"mobile", "static"}
    if unknown:
        raise SystemExit(f"unknown scenarios: {sorted(unknown)}")
    scenarios = tuple(name == "mobile"
                      for name in ("mobile", "static")
                      if name in scenario_names)
    telemetry = (TelemetryWriter(args.telemetry_out)
                 if args.telemetry_out else None)
    monitor = (LiveSweepMonitor(telemetry=telemetry)
               if (args.live or telemetry is not None) else None)

    def on_event(event: ProgressEvent) -> None:
        _on_event(event)
        if monitor is not None:
            monitor(event)

    if monitor is not None:
        # The live line replaces the per-cell progress chatter.
        progress = lambda line: None  # noqa: E731
    try:
        result = run_sweep(scale, schemes, rates=rates, scenarios=scenarios,
                           seed=args.seed, progress=progress,
                           workers=args.workers, on_event=on_event,
                           overhearing_policy=args.overhearing_policy)
    finally:
        if telemetry is not None:
            telemetry.close()
    for mobile in result.scenarios:
        label = "mobile" if mobile else "static"
        print(format_series(
            "rate [pkt/s]", list(result.rates),
            {s: result.series(s, mobile, lambda a: a.total_energy)
             for s in schemes},
            title=f"total energy [J], {label}",
        ))
        print()
    if args.json_path:
        print(f"wrote {write_sweep_json(result, args.json_path)}")
    if args.csv_path:
        print(f"wrote {write_sweep_csv(result, args.csv_path)}")
    return 0


#: argparse destinations of every option naming a file a command writes.
_OUTPUT_DESTS = ("json_out", "trace_out", "telemetry_out", "sanitize_out",
                 "json_path", "csv_path")


def _check_output_paths(args: argparse.Namespace) -> None:
    """Fail before any work when an output file's directory is missing,
    so a run's results are never computed only to be lost at the end."""
    for dest in _OUTPUT_DESTS:
        path = getattr(args, dest, None)
        if path and not Path(path).parent.is_dir():
            raise SystemExit(f"error: cannot write {path}: directory "
                             f"{Path(path).parent} does not exist")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point.

    Bad input found past argument parsing ends every subcommand the same
    way: one ``error: ...`` line and exit status 1, never a traceback.
    """
    args = _build_parser().parse_args(argv)
    _check_output_paths(args)
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        raise SystemExit(f"error: {exc}")


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "spans":
        return _cmd_spans(args)
    if args.command == "lint":
        from repro.analysis.lint.runner import run_from_args

        return run_from_args(args)
    scale: ExperimentScale = _SCALES[args.scale]
    progress = lambda line: print(f"  .. {line}", file=sys.stderr)  # noqa: E731
    if args.command == "sweep":
        return _cmd_sweep(args, scale, progress)
    return _cmd_experiment(args, scale)


def _cmd_experiment(args: argparse.Namespace, scale: ExperimentScale) -> int:
    """Run one experiment of the table; print its series, then verdicts."""
    from repro.experiments.export import write_result_json
    from repro.experiments.verdict import format_verdicts

    name = (f"ablation-{args.study}" if args.command == "ablation"
            else args.command)
    experiment = EXPERIMENTS[name]
    result = run_experiments(
        [name], scale, seed=args.seed, workers=args.workers,
        on_event=_on_experiment_event,
        overhearing_policy=getattr(args, "overhearing_policy", "fixed"),
    )[name]
    print(experiment.format(result))
    payload = experiment.to_json(result)
    if experiment.verdicts is not None:
        verdicts = experiment.verdicts(result)
        print()
        print(format_verdicts(verdicts))
        payload["verdicts"] = [v.to_dict() for v in verdicts]
    if args.json_out:
        print(f"wrote {write_result_json(payload, args.json_out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
