"""Command-line entry points: one table of commands, one parser
(``python -m repro.cli <command> --help`` for a command's options).

Run a figure sweep without pytest::

    python -m repro.cli fig1            # print the figure table
    python -m repro.cli fig7 --full     # denser sweep
    python -m repro.cli list            # available experiments

Run a fault-injection campaign (seeded, deterministic)::

    python -m repro.cli campaign --seed 1 --scenarios 50
    python -m repro.cli campaign --seed 1 --scenarios 2 --selftest-violation

Run gossip-membership churn campaigns at 50-100 nodes::

    python -m repro.cli churn --nodes 50,100 --seed 1
    python -m repro.cli churn --sweep     # convergence-vs-N bench record

Run the multi-ring sharding scaling sweep (guarded bench record)::

    python -m repro.cli multiring                 # M in {1,2,4,8}
    python -m repro.cli multiring --ms 1,2        # CI smoke
    python -m repro.cli report --multiring        # merge-layer metrics

Inspect wire captures (``.rcap`` files from the sim switch tap or the
UDP transport)::

    python -m repro.cli decode bench_results/captures/sim_sample.rcap
    python -m repro.cli decode run.rcap --summary --limit 20
    python -m repro.cli capture-sample --out-dir bench_results/captures

Observability (``repro.obs``): unified metrics snapshots and causal
lifecycle traces (``.rtrace``)::

    python -m repro.cli report                  # seeded run -> metrics table
    python -m repro.cli report --json           # same, JSON snapshot
    python -m repro.cli trace-analyze run.rtrace
    python -m repro.cli obs-sample              # -> bench_results/fresh/obs
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from .bench import ALL_FIGURES, SweepSpec, persist_figure, run_sweep
from .records import write_record


def _row(*flags: str, **kwargs: Any) -> Tuple[Tuple[str, ...], Dict[str, Any]]:
    """One option row of the command table: ``add_argument``'s arguments."""
    return flags, kwargs


_QUIET = _row("--quiet", action="store_true",
              help="suppress per-point progress")
#: The figure sweeps' rows (every figure id and ``all``).
_SWEEP = (
    _row("--full", action="store_true",
         help="denser, longer sweeps (sets REPRO_BENCH_FULL=1)"),
    _QUIET,
    _row("--processes", type=int, default=None, metavar="N",
         help="worker processes per sweep (default: REPRO_BENCH_PROCESSES "
              "or serial); sweep points are independent simulations, so "
              "results are identical at any worker count"),
)
#: The seeded reference run's rows (``report`` and ``obs-sample``).
_RUN = (
    _row("--seed", type=int, default=1),
    _row("--nodes", type=int, default=4),
    _row("--duration", type=float, default=0.02,
         help="simulated seconds (default: 0.02)"),
    _row("--rate", type=float, default=200e6,
         help="offered load in bps (default: 200e6)"),
)


def _progress(args) -> Optional[Callable[[str], None]]:
    """Per-point progress lines on stderr, unless ``--quiet``."""
    if args.quiet:
        return None
    return lambda line: print("  " + line, file=sys.stderr)


def _figures(args) -> int:
    """A figure id, or ``all``: run its sweep(s), persist and print them."""
    if args.full:
        os.environ["REPRO_BENCH_FULL"] = "1"
    targets = sorted(ALL_FIGURES) if args.command == "all" else [args.command]
    for target in targets:
        specs = ALL_FIGURES[target]()
        for spec in (specs,) if isinstance(specs, SweepSpec) else specs:
            figure = run_sweep(spec, progress=_progress(args),
                               processes=args.processes)
            persist_figure(figure)
            print(figure.to_markdown())
            print()
    return 0


def _list(args) -> int:
    """The ``list`` command: the figure ids, one per line."""
    for figure_id in sorted(ALL_FIGURES):
        print(figure_id)
    return 0


def _campaign(args) -> int:
    """The ``campaign`` experiment: seeded fault-injection sweep."""
    from .sim.campaign import CampaignOptions, corrupt_first_log, run_campaign

    options = CampaignOptions(
        seed=args.seed,
        scenarios=args.scenarios,
        n_nodes=args.nodes,
        out_dir=args.out_dir,
        corrupt_logs=corrupt_first_log if args.selftest_violation else None,
    )
    summary = run_campaign(options, progress=_progress(args))
    print("campaign seed=%d: %d scenario(s) x windows %s, %d failure(s)"
          % (summary["seed"], summary["scenarios"],
             summary["windows"], summary["failures"]))
    print("summary: %s" % summary["summary_path"])
    for scenario in summary["results"]:
        for run in scenario["runs"]:
            if run["repro"]:
                print("repro:   %s" % run["repro"])
    return 1 if summary["failures"] else 0


def _churn(args) -> int:
    """The ``churn`` experiment: gossip-membership churn campaigns.

    Default mode runs EVS-checked endurance scenarios (sustained
    crash/restart churn plus one flapping node) at each requested
    cluster size; ``--sweep`` instead measures view-change convergence
    and control traffic vs N for both detection paths and writes the
    guarded ``churn_convergence.json`` record.
    """
    from .sim.churn import ChurnOptions, convergence_sweep, run_churn_scenario

    if args.sweep:
        record = convergence_sweep(seed=args.seed)
        path = write_record(record, args.out)
        for entry in record["sweep"]:
            print("n=%3d  gossip: crash %.3fs rejoin %.3fs steady "
                  "%.0f recv/node/s | probes: crash %.3fs steady "
                  "%.0f recv/node/s"
                  % (entry["n_nodes"],
                     entry["gossip"]["crash_convergence_s"],
                     entry["gossip"]["rejoin_convergence_s"],
                     entry["gossip"]["steady"]["recv_per_node_hz"],
                     entry["probes"]["crash_convergence_s"],
                     entry["probes"]["steady"]["recv_per_node_hz"]))
        print("metrics: %r" % record["metrics"])
        print("wrote %s" % path)
        return 0

    failures = 0
    for field in args.nodes.split(","):
        n_nodes = int(field)
        options = ChurnOptions(
            seed=args.seed, n_nodes=n_nodes, gossip=not args.probes,
            churn_events=args.events, joins=args.joins,
        )
        summary = run_churn_scenario(options)
        ok = summary["converged"] and not summary["violations"]
        failures += 0 if ok else 1
        print("churn n=%d seed=%d %s: %d restart(s), %d join(s), "
              "%d delivered, %d violation(s), ctrl %.0f frames/node/s"
              % (n_nodes, args.seed,
                 "gossip" if not args.probes else "probes",
                 summary["total_restarts"], len(summary["joined_pids"]),
                 summary["delivered_total"],
                 len(summary["violations"]),
                 summary["ctrl"]["ctrl_frames_per_node_per_s"]))
        for violation in summary["violations"][:5]:
            print("  violation: %s" % (violation,))
        if not summary["converged"]:
            print("  ERROR: membership failed to re-converge after churn")
    return 1 if failures else 0


def _multiring(args) -> int:
    """The ``multiring`` experiment: sharded-ring scaling sweep.

    Runs the fixed per-ring workload at each requested ring count M,
    checks every point with both ordering oracles (per-ring EVS and the
    cross-ring merge checker), prints the scaling table, and writes the
    guarded ``multiring_scaling.json`` record.  Exits non-zero if any
    point reports an ordering violation.
    """
    from .multiring.bench import scaling_sweep, total_violations

    ms = [int(field) for field in args.ms.split(",")]
    record = scaling_sweep(ms=ms, seed=args.seed, progress=_progress(args))
    path = write_record(record, args.out)
    for entry in record["sweep"]:
        print("M=%d  %8.0f msgs/s  %7.1f Mbps  p50 %6.1f us  rounds %4d  "
              "skips %3d  lag %d  violations %d"
              % (entry["m"], entry["aggregate_msgs_per_s"],
                 entry["aggregate_mbps"], entry["group_latency_p50_us"],
                 entry["rounds_merged"], entry["skips_filled"],
                 entry["max_ring_lag_rounds"],
                 entry["evs_violations"] + entry["cross_ring_violations"]))
    if record["metrics"]:
        print("metrics: %r" % record["metrics"])
    print("wrote %s" % path)
    violations = total_violations(record)
    if violations:
        print("ERROR: %d ordering violation(s) across the sweep"
              % violations, file=sys.stderr)
    return 1 if violations else 0


def _decode(args) -> int:
    """The ``decode`` tool: render or summarize one ``.rcap`` capture."""
    from .wire.analyzer import render_capture, render_summary

    lines = (
        render_summary(args.capture) if args.summary
        else render_capture(args.capture, limit=args.limit)
    )
    for line in lines:
        print(line)
    return 0


def _capture_sample(args) -> int:
    """Produce one small sim capture and one emulation capture.

    The committed reference samples are these two files (regenerate them
    with ``--out-dir bench_results/captures``): the same decoder renders
    both, proving the two worlds share one wire format.
    """
    import time

    from .core import ProtocolConfig, Service
    from .emulation import EmulatedRing
    from .net import GIGABIT
    from .sim import LIBRARY
    from .sim.cluster import SimCluster
    from .wire.capture import WORLD_EMULATION, WORLD_SIM, CaptureWriter

    os.makedirs(args.out_dir, exist_ok=True)

    sim_path = os.path.join(args.out_dir, "sim_sample.rcap")
    config = ProtocolConfig.accelerated(personal_window=4, accelerated_window=2)
    with CaptureWriter(
        sim_path, WORLD_SIM,
        label="SimCluster n=4 library 1350B agreed, seed=1",
    ) as writer:
        cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=1)
        cluster.attach_capture(writer)
        cluster.inject_at_rate(40e6, args.duration)
        cluster.run(args.duration, 0.0, offered_bps=40e6)
    print("wrote %s (%d records)" % (sim_path, writer.records_written))

    emu_path = os.path.join(args.out_dir, "emu_sample.rcap")
    with CaptureWriter(
        emu_path, WORLD_EMULATION,
        label="EmulatedRing n=3 over localhost UDP, 12 agreed messages",
    ) as writer:
        with EmulatedRing(3, capture=writer) as ring:
            for pid in range(3):
                for i in range(4):
                    ring.submit(pid, ("sample", pid, i), Service.AGREED)
            ring.collect_deliveries(expected_per_node=12, timeout_s=20.0)
            time.sleep(0.05)  # let in-flight token sends reach the tap
    print("wrote %s (%d records)" % (emu_path, writer.records_written))
    return 0


def _traced_reference_run(seed: int, n_nodes: int, duration_s: float,
                          offered_bps: float, trace: bool = True):
    """One small seeded SimCluster run; the CLI observability workload.

    Returns ``(cluster, result, tracer)``; ``tracer`` is None when
    ``trace`` is False.  Warmup is zero and packing stays off so every
    delivery chain in the trace reconciles exactly against the latency
    recorder.
    """
    from .core import ProtocolConfig
    from .net import GIGABIT
    from .sim import LIBRARY
    from .sim.cluster import SimCluster

    config = ProtocolConfig.accelerated(personal_window=4, accelerated_window=2)
    cluster = SimCluster(n_nodes, GIGABIT, LIBRARY, config, seed=seed)
    tracer = None
    if trace:
        tracer = cluster.attach_tracer(
            label="SimCluster n=%d library agreed, seed=%d"
                  % (n_nodes, seed)
        )
    cluster.inject_at_rate(offered_bps, duration_s)
    result = cluster.run(duration_s, 0.0, offered_bps=offered_bps)
    return cluster, result, tracer


def _report(args) -> int:
    """The ``report`` tool: metrics-registry snapshot, table or JSON.

    With a snapshot path, pretty-prints (or re-emits) an existing
    registry snapshot; without one, runs the small seeded reference
    workload and reports its live registry.
    """
    import json

    from .obs.report import format_metrics

    if args.snapshot is not None:
        with open(args.snapshot) as handle:
            snapshot = json.load(handle)
    elif args.multiring:
        from .multiring.sim import MultiRingSimCluster

        cluster = MultiRingSimCluster(2, n_nodes=args.nodes, seed=args.seed)
        result = cluster.run(
            duration_s=max(args.duration, 0.05), warmup_s=0.01,
            offered_per_ring_bps=args.rate,
        )
        if not result.ok:
            for violation in (result.evs_violations
                              + result.cross_ring_violations)[:5]:
                print("violation: %s" % violation, file=sys.stderr)
            return 1
        snapshot = cluster.metrics.snapshot()
    else:
        cluster, _result, _tracer = _traced_reference_run(
            args.seed, args.nodes, args.duration, args.rate, trace=False,
        )
        snapshot = cluster.metrics.snapshot()

    if args.out is not None:
        write_record(snapshot, args.out)
        print("wrote %s" % args.out, file=sys.stderr)
    if args.as_json:
        print(json.dumps(snapshot, indent=2, sort_keys=True))
    else:
        print(format_metrics(snapshot))
    return 0


def _trace_analyze(args) -> int:
    """The ``trace-analyze`` tool: decompose a lifecycle trace."""
    import json

    from .obs.report import analyze_path, format_report

    report = analyze_path(args.trace, top_n=args.top)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0


def _obs_sample(args) -> int:
    """Produce the reference observability artifacts from one run.

    One seeded sim run yields the sample ``.rtrace`` trace and the
    matching metrics snapshot; ``trace-analyze`` and ``report`` render
    them.  Same seed, same bytes — which is why no copy is
    committed.
    """
    os.makedirs(args.out_dir, exist_ok=True)

    cluster, result, tracer = _traced_reference_run(
        args.seed, args.nodes, args.duration, args.rate,
    )
    trace_path = tracer.write_binary(
        os.path.join(args.out_dir, "sim_sample.rtrace"))
    print("wrote %s (%d records)" % (trace_path, len(tracer)))

    metrics_path = os.path.join(args.out_dir, "metrics_sample.json")
    cluster.metrics.write_json(metrics_path)
    print("wrote %s (%d cluster metrics)"
          % (metrics_path, len(cluster.metrics.names())))
    print("run: %d latency samples, agreed mean %.1f us"
          % (result.latency.count, result.latency.mean_s * 1e6))
    return 0


def _lint(args) -> int:
    """The ``lint`` tool: repo-specific static analysis as a hard gate.

    Exit status: 0 when there are no findings, 1 on any finding or parse
    error, 2 on bad usage.
    """
    import json
    import time

    from . import analysis

    package_root = args.root
    if package_root is None:
        package_root = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir(package_root):
        print("lint: no such directory: %s" % package_root,
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    report = analysis.analyze_tree(package_root)
    elapsed = time.perf_counter() - started

    if args.json_out is not None:
        payload = report.to_dict()
        if args.json_out == "-":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            write_record(payload, args.json_out)

    if not args.quiet:
        for finding in report.findings:
            print(finding.render())
        for error in report.parse_errors:
            print("parse error: %s" % error)
    print(
        "lint: %d file(s), %d finding(s), %.2fs"
        % (report.files_scanned, len(report.findings), elapsed),
        file=sys.stderr,
    )
    return 1 if (report.findings or report.parse_errors) else 0


def _commands() -> List[Tuple[str, Callable[[Any], int], str, Tuple]]:
    """The command table: ``(name, handler, description, option rows)``;
    built per call, so a figure added to ``ALL_FIGURES`` is a command."""
    from .multiring.bench import DEFAULT_MS
    from .multiring.bench import DEFAULT_RECORD_PATH as MULTIRING_RECORD
    from .sim.churn import DEFAULT_RECORD_PATH as CHURN_RECORD

    ms = ",".join(str(m) for m in DEFAULT_MS)
    figures = [
        (figure_id, _figures,
         "Run figure %s's sweep(s) and print its table." % figure_id, _SWEEP)
        for figure_id in sorted(ALL_FIGURES)
    ]
    return figures + [
        ("all", _figures,
         "Run every figure's sweep(s) and print their tables.", _SWEEP),
        ("list", _list, "List the figure ids.", ()),
        ("campaign", _campaign,
         "Seeded fault-injection campaign, every run EVS-checked.", (
             _QUIET,
             _row("--seed", type=int, default=1,
                  help="campaign seed; schedules, loss and workload all "
                       "derive from it (default: 1)"),
             _row("--scenarios", type=int, default=10,
                  help="number of random fault scenarios (default: 10)"),
             _row("--nodes", type=int, default=3,
                  help="cluster size per scenario (default: 3)"),
             _row("--out-dir",
                  default=os.path.join("bench_results", "fresh", "campaigns"),
                  help="where summaries and repro files land"),
             _row("--selftest-violation", action="store_true",
                  help="deterministically corrupt one log before checking, "
                       "to prove the checker catches ordering violations "
                       "and emits a shrunk repro"),
         )),
        ("churn", _churn,
         "Churn campaigns for the gossip membership detector.", (
             _row("--seed", type=int, default=1,
                  help="campaign seed; victim order and schedules derive "
                       "from it (default: 1)"),
             _row("--nodes", default="50,100",
                  help="comma-separated cluster sizes for scenario runs "
                       "(default: 50,100)"),
             _row("--events", type=int, default=8,
                  help="churn events (crash+restart cycles) per scenario "
                       "(default: 8)"),
             _row("--joins", type=int, default=0, metavar="K",
                  help="spawn K brand-new pids mid-scenario (open-membership "
                       "joins; gossip path only, default: 0)"),
             _row("--probes", action="store_true",
                  help="run scenarios on the probe-flood detection path "
                       "instead of gossip"),
             _row("--sweep", action="store_true",
                  help="run the convergence-vs-N sweep (both detection "
                       "paths) and write the bench record instead of "
                       "scenario runs"),
             _row("--out", default=CHURN_RECORD,
                  help="record path for --sweep (default: %s)" % CHURN_RECORD),
         )),
        ("multiring", _multiring,
         "Multi-ring sharding scaling sweep with cross-ring merge checking.", (
             _row("--ms", default=ms,
                  help="comma-separated ring counts to sweep (default: %s)"
                       % ms),
             _row("--seed", type=int, default=1,
                  help="workload seed; group placement, injection jitter and "
                       "the merged order all derive from it (default: 1)"),
             _row("--out", default=MULTIRING_RECORD,
                  help="record path (default: %s)" % MULTIRING_RECORD),
             _QUIET,
         )),
        ("decode", _decode,
         "Decode a .rcap wire capture (sim or emulation).", (
             _row("capture", help="path to the .rcap file"),
             _row("--limit", type=int, default=None, metavar="N",
                  help="show at most N records (default: all)"),
             _row("--summary", action="store_true",
                  help="print aggregate counts instead of per-record lines"),
         )),
        ("capture-sample", _capture_sample,
         "Generate the reference sim/emulation .rcap samples.", (
             _row("--out-dir",
                  default=os.path.join("bench_results", "fresh", "captures"),
                  help="directory for sim_sample.rcap and emu_sample.rcap "
                       "(default: bench_results/fresh/captures; the committed "
                       "samples live in bench_results/captures)"),
             _row("--duration", type=float, default=0.01,
                  help="simulated seconds for the sim sample (default: 0.01)"),
         )),
        ("report", _report,
         "Render a MetricsRegistry snapshot (existing JSON file, or a fresh "
         "seeded reference run).", (
             _row("snapshot", nargs="?", default=None,
                  help="existing snapshot JSON to render (default: run the "
                       "seeded reference workload and snapshot it)"),
             _row("--json", action="store_true", dest="as_json",
                  help="emit the JSON snapshot instead of the table"),
             _row("--out", default=None, metavar="PATH",
                  help="also write the JSON snapshot to PATH"),
             _row("--multiring", action="store_true",
                  help="run the seeded M=2 multi-ring reference workload "
                       "instead and report its merge-layer registry "
                       "(multiring.*)"),
         ) + _RUN),
        ("trace-analyze", _trace_analyze,
         "Per-stage latency decomposition of a lifecycle .rtrace trace.", (
             _row("trace", help="path to the trace file"),
             _row("--top", type=int, default=10, metavar="N",
                  help="how many slowest deliveries to list (default: 10)"),
             _row("--json", action="store_true", dest="as_json",
                  help="emit the full analysis as JSON instead of the report"),
         )),
        ("obs-sample", _obs_sample,
         "Generate the reference .rtrace trace and metrics snapshot from a "
         "seeded sim run.", (
             _row("--out-dir", default=os.path.join("bench_results", "fresh",
                                                    "obs"),
                  help="directory for sim_sample.rtrace and "
                       "metrics_sample.json"),
         ) + _RUN),
        ("lint", _lint,
         "Determinism, sans-IO-boundary, __slots__ and wire-drift lints over "
         "the repro package (DESIGN.md section 14).", (
             _row("root", nargs="?", default=None,
                  help="package directory to lint (default: the installed "
                       "repro package)"),
             _row("--json", metavar="FILE", dest="json_out", default=None,
                  help="write the full JSON report to FILE ('-' for stdout)"),
             _row("--quiet", action="store_true",
                  help="suppress per-finding lines; print only the summary"),
         )),
    ]


def build_parser() -> argparse.ArgumentParser:
    """The one parser: a subcommand per row of :func:`_commands`."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduce figures from 'Fast Total Ordering for "
                    "Modern Data Centers'.",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command",
                                       required=True)
    for name, handler, description, rows in _commands():
        command = subparsers.add_parser(name, help=description,
                                        description=description)
        for flags, kwargs in rows:
            command.add_argument(*flags, **kwargs)
        command.set_defaults(handler=handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
