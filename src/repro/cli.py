"""Command-line entry points.

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
from typing import List, Optional

from .bench import ALL_FIGURES, make_fig4, make_fig6, persist_figure, run_sweep
from .records import write_record


def _available() -> List[str]:
    return sorted(list(ALL_FIGURES) + ["fig4", "fig6"])


def run_figure_by_id(
    figure_id: str,
    verbose: bool = True,
    processes: Optional[int] = None,
) -> List[str]:
    """Run one figure's sweep(s); returns the markdown blocks."""
    progress = (lambda line: print("  " + line, file=sys.stderr)) if verbose else None
    if figure_id in ("fig4", "fig6"):
        specs = make_fig4() if figure_id == "fig4" else make_fig6()
        blocks = []
        for spec in specs:
            figure = run_sweep(spec, progress=progress, processes=processes)
            persist_figure(figure)
            blocks.append(figure.to_markdown())
        return blocks
    if figure_id not in ALL_FIGURES:
        raise SystemExit(
            "unknown experiment %r; available: %s"
            % (figure_id, ", ".join(_available()))
        )
    figure = run_sweep(
        ALL_FIGURES[figure_id](), progress=progress, processes=processes
    )
    persist_figure(figure)
    return [figure.to_markdown()]


def run_campaign_command(args) -> int:
    """The ``campaign`` experiment: seeded fault-injection sweep."""
    from .sim.campaign import (
        CampaignOptions,
        corrupt_first_log,
        run_campaign,
    )

    options = CampaignOptions(
        seed=args.seed,
        scenarios=args.scenarios,
        n_nodes=args.nodes,
        out_dir=args.out_dir,
        corrupt_logs=corrupt_first_log if args.selftest_violation else None,
    )
    progress = None if args.quiet else (
        lambda line: print("  " + line, file=sys.stderr)
    )
    summary = run_campaign(options, progress=progress)
    print("campaign seed=%d: %d scenario(s) x windows %s, %d failure(s)"
          % (summary["seed"], summary["scenarios"],
             summary["windows"], summary["failures"]))
    print("summary: %s" % summary["summary_path"])
    for scenario in summary["results"]:
        for run in scenario["runs"]:
            if run["repro"]:
                print("repro:   %s" % run["repro"])
    return 1 if summary["failures"] else 0


def run_churn_command(argv: List[str]) -> int:
    """The ``churn`` experiment: gossip-membership churn campaigns.

    Default mode runs EVS-checked endurance scenarios (sustained
    crash/restart churn plus one flapping node) at each requested
    cluster size; ``--sweep`` instead measures view-change convergence
    and control traffic vs N for both detection paths and writes the
    guarded ``churn_convergence.json`` record.
    """
    from .sim.churn import (
        DEFAULT_RECORD_PATH,
        ChurnOptions,
        convergence_sweep,
        run_churn_scenario,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli churn",
        description="Churn campaigns for the gossip membership detector.",
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="campaign seed; victim order and schedules derive from it "
             "(default: 1)",
    )
    parser.add_argument(
        "--nodes", default="50,100",
        help="comma-separated cluster sizes for scenario runs "
             "(default: 50,100)",
    )
    parser.add_argument(
        "--events", type=int, default=8,
        help="churn events (crash+restart cycles) per scenario "
             "(default: 8)",
    )
    parser.add_argument(
        "--joins", type=int, default=0, metavar="K",
        help="spawn K brand-new pids mid-scenario (open-membership "
             "joins; gossip path only, default: 0)",
    )
    parser.add_argument(
        "--probes", action="store_true",
        help="run scenarios on the probe-flood detection path instead "
             "of gossip",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="run the convergence-vs-N sweep (both detection paths) "
             "and write the bench record instead of scenario runs",
    )
    parser.add_argument(
        "--out", default=DEFAULT_RECORD_PATH,
        help="record path for --sweep (default: %s)" % DEFAULT_RECORD_PATH,
    )
    args = parser.parse_args(argv)

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


def run_multiring_command(argv: List[str]) -> int:
    """The ``multiring`` experiment: sharded-ring scaling sweep.

    Runs the fixed per-ring workload at each requested ring count M,
    checks every point with both ordering oracles (per-ring EVS and the
    cross-ring merge checker), prints the scaling table, and writes the
    guarded ``multiring_scaling.json`` record.  Exits non-zero if any
    point reports an ordering violation.
    """
    from .multiring.bench import (
        DEFAULT_MS,
        DEFAULT_RECORD_PATH,
        scaling_sweep,
        total_violations,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli multiring",
        description="Multi-ring sharding scaling sweep with cross-ring "
                    "merge checking.",
    )
    parser.add_argument(
        "--ms", default=",".join(str(m) for m in DEFAULT_MS),
        help="comma-separated ring counts to sweep (default: %s)"
             % ",".join(str(m) for m in DEFAULT_MS),
    )
    parser.add_argument(
        "--seed", type=int, default=1,
        help="workload seed; group placement, injection jitter and the "
             "merged order all derive from it (default: 1)",
    )
    parser.add_argument(
        "--out", default=DEFAULT_RECORD_PATH,
        help="record path (default: %s)" % DEFAULT_RECORD_PATH,
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress",
    )
    args = parser.parse_args(argv)

    ms = [int(field) for field in args.ms.split(",")]
    progress = None if args.quiet else (
        lambda line: print("  " + line, file=sys.stderr)
    )
    record = scaling_sweep(ms=ms, seed=args.seed, progress=progress)
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


def run_decode_command(argv: List[str]) -> int:
    """The ``decode`` tool: render or summarize one ``.rcap`` capture."""
    from .wire.decode import render_capture, render_summary

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli decode",
        description="Decode a .rcap wire capture (sim or emulation).",
    )
    parser.add_argument("capture", help="path to the .rcap file")
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N records (default: all)",
    )
    parser.add_argument(
        "--summary", action="store_true",
        help="print aggregate counts instead of per-record lines",
    )
    args = parser.parse_args(argv)
    lines = (
        render_summary(args.capture) if args.summary
        else render_capture(args.capture, limit=args.limit)
    )
    for line in lines:
        print(line)
    return 0


def run_capture_sample_command(argv: List[str]) -> int:
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

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli capture-sample",
        description="Generate the reference sim/emulation .rcap samples.",
    )
    parser.add_argument(
        "--out-dir", default=os.path.join("bench_results", "fresh", "captures"),
        help="directory for sim_sample.rcap and emu_sample.rcap (default: "
             "bench_results/fresh/captures; the committed samples live in "
             "bench_results/captures)",
    )
    parser.add_argument(
        "--duration", type=float, default=0.01,
        help="simulated seconds for the sim sample (default: 0.01)",
    )
    args = parser.parse_args(argv)
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

    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2
    )
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


def run_report_command(argv: List[str]) -> int:
    """The ``report`` tool: metrics-registry snapshot, table or JSON.

    With a snapshot path, pretty-prints (or re-emits) an existing
    registry snapshot; without one, runs the small seeded reference
    workload and reports its live registry.
    """
    import json

    from .obs.report import format_metrics

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli report",
        description="Render a MetricsRegistry snapshot (existing JSON "
                    "file, or a fresh seeded reference run).",
    )
    parser.add_argument(
        "snapshot", nargs="?", default=None,
        help="existing snapshot JSON to render (default: run the "
             "seeded reference workload and snapshot it)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the JSON snapshot instead of the table",
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the JSON snapshot to PATH",
    )
    parser.add_argument(
        "--multiring", action="store_true",
        help="run the seeded M=2 multi-ring reference workload instead "
             "and report its merge-layer registry (multiring.*)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--duration", type=float, default=0.02,
                        help="simulated seconds (default: 0.02)")
    parser.add_argument("--rate", type=float, default=200e6,
                        help="offered load in bps (default: 200e6)")
    args = parser.parse_args(argv)

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


def run_trace_analyze_command(argv: List[str]) -> int:
    """The ``trace-analyze`` tool: decompose a lifecycle trace."""
    import json

    from .obs.report import analyze_path, format_report

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli trace-analyze",
        description="Per-stage latency decomposition of a lifecycle "
                    "trace (.rtrace binary or .jsonl).",
    )
    parser.add_argument("trace", help="path to the trace file")
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest deliveries to list (default: 10)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the full analysis as JSON instead of the report",
    )
    args = parser.parse_args(argv)
    report = analyze_path(args.trace, top_n=args.top)
    if args.as_json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    return 0


def run_obs_sample_command(argv: List[str]) -> int:
    """Produce the reference observability artifacts from one run.

    One seeded sim run yields the sample trace (binary and JSONL
    flavors carry identical records) and the matching metrics snapshot;
    ``trace-analyze`` and ``report`` render them.  Same seed, same
    bytes — which is why no copy is committed.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli obs-sample",
        description="Generate the reference .rtrace/.jsonl trace and "
                    "metrics snapshot from a seeded sim run.",
    )
    parser.add_argument(
        "--out-dir", default=os.path.join("bench_results", "fresh", "obs"),
        help="directory for sim_sample.rtrace/.jsonl and "
             "metrics_sample.json",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--duration", type=float, default=0.02,
                        help="simulated seconds (default: 0.02)")
    parser.add_argument("--rate", type=float, default=200e6,
                        help="offered load in bps (default: 200e6)")
    args = parser.parse_args(argv)
    os.makedirs(args.out_dir, exist_ok=True)

    cluster, result, tracer = _traced_reference_run(
        args.seed, args.nodes, args.duration, args.rate,
    )
    trace_path = tracer.write(
        os.path.join(args.out_dir, "sim_sample.rtrace")
    )
    jsonl_path = tracer.write_jsonl(
        os.path.join(args.out_dir, "sim_sample.jsonl")
    )
    print("wrote %s (%d records)" % (trace_path, len(tracer)))
    print("wrote %s (%d records)" % (jsonl_path, len(tracer)))

    metrics_path = os.path.join(args.out_dir, "metrics_sample.json")
    cluster.metrics.write_json(metrics_path)
    print("wrote %s (%d cluster metrics)"
          % (metrics_path, len(cluster.metrics.names())))
    print("run: %d latency samples, agreed mean %.1f us"
          % (result.latency.count, result.latency.mean_s * 1e6))
    return 0


def run_lint_command(argv: List[str]) -> int:
    """The ``lint`` tool: repo-specific static analysis as a hard gate.

    Exit status: 0 when every finding is baselined (or there are none),
    1 on any new finding or parse error, 2 on bad usage.
    """
    import json
    import time

    from . import analysis

    parser = argparse.ArgumentParser(
        prog="python -m repro.cli lint",
        description="Determinism, sans-IO-boundary, __slots__ and "
                    "wire-drift lints over the repro package "
                    "(DESIGN.md section 14).",
    )
    parser.add_argument(
        "root", nargs="?", default=None,
        help="package directory to lint (default: the installed "
             "repro package)",
    )
    parser.add_argument(
        "--json", metavar="FILE", dest="json_out", default=None,
        help="write the full JSON report to FILE ('-' for stdout)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="suppression baseline (default: lint_baseline.json in "
             "the CWD or next to the package)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file: report and gate on everything",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="rewrite the baseline to suppress every current finding, "
             "then exit 0",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-finding lines; print only the summary",
    )
    args = parser.parse_args(argv)

    package_root = args.root
    if package_root is None:
        package_root = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isdir(package_root):
        print("lint: no such directory: %s" % package_root,
              file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None:
        candidates = [
            analysis.DEFAULT_BASELINE_NAME,
            os.path.join(package_root, os.pardir, os.pardir,
                         analysis.DEFAULT_BASELINE_NAME),
        ]
        for candidate in candidates:
            if os.path.exists(candidate):
                baseline_path = candidate
                break
        else:
            baseline_path = candidates[0]

    started = time.perf_counter()
    report = analysis.analyze_tree(package_root)
    elapsed = time.perf_counter() - started

    if args.write_baseline:
        analysis.write_baseline(baseline_path, report.findings)
        print("lint: wrote %s suppressing %d finding(s)"
              % (baseline_path, len(report.findings)))
        return 0

    baseline = set() if args.no_baseline else \
        analysis.load_baseline(baseline_path)
    split = analysis.split_by_baseline(report.findings, baseline)
    new, baselined = split["new"], split["baselined"]

    if args.json_out is not None:
        payload = report.to_dict()
        payload["baseline"] = baseline_path
        payload["baselined_count"] = len(baselined)
        payload["new_count"] = len(new)
        payload["new"] = [f.to_dict() for f in new]
        if args.json_out == "-":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            write_record(payload, args.json_out)

    if not args.quiet:
        for finding in new:
            print(finding.render())
        for error in report.parse_errors:
            print("parse error: %s" % error)
    stale = baseline - {f.fingerprint for f in baselined}
    print(
        "lint: %d file(s), %d finding(s) (%d new, %d baselined), "
        "%.2fs" % (report.files_scanned, len(report.findings),
                   len(new), len(baselined), elapsed),
        file=sys.stderr,
    )
    if stale and not args.quiet:
        print(
            "lint: %d stale baseline entr%s (fixed findings still "
            "suppressed) — rerun with --write-baseline to prune"
            % (len(stale), "y" if len(stale) == 1 else "ies"),
            file=sys.stderr,
        )
    return 1 if (new or report.parse_errors) else 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        return run_lint_command(argv[1:])
    if argv and argv[0] == "decode":
        return run_decode_command(argv[1:])
    if argv and argv[0] == "capture-sample":
        return run_capture_sample_command(argv[1:])
    if argv and argv[0] == "churn":
        return run_churn_command(argv[1:])
    if argv and argv[0] == "multiring":
        return run_multiring_command(argv[1:])
    if argv and argv[0] == "report":
        return run_report_command(argv[1:])
    if argv and argv[0] == "trace-analyze":
        return run_trace_analyze_command(argv[1:])
    if argv and argv[0] == "obs-sample":
        return run_obs_sample_command(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduce figures from 'Fast Total Ordering for "
                    "Modern Data Centers'.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig1), 'all', 'list', 'campaign', "
             "'churn', 'multiring', 'decode', 'capture-sample', "
             "'report', 'trace-analyze', 'obs-sample', or 'lint'",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="denser, longer sweeps (sets REPRO_BENCH_FULL=1)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress",
    )
    parser.add_argument(
        "--processes", type=int, default=None, metavar="N",
        help="worker processes per sweep (default: REPRO_BENCH_PROCESSES "
             "or serial); sweep points are independent simulations, so "
             "results are identical at any worker count",
    )
    campaign_group = parser.add_argument_group(
        "campaign options (experiment 'campaign')"
    )
    campaign_group.add_argument(
        "--seed", type=int, default=1,
        help="campaign seed; schedules, loss and workload all derive "
             "from it (default: 1)",
    )
    campaign_group.add_argument(
        "--scenarios", type=int, default=10,
        help="number of random fault scenarios (default: 10)",
    )
    campaign_group.add_argument(
        "--nodes", type=int, default=3,
        help="cluster size per scenario (default: 3)",
    )
    campaign_group.add_argument(
        "--out-dir",
        default=os.path.join("bench_results", "fresh", "campaigns"),
        help="where summaries and repro files land",
    )
    campaign_group.add_argument(
        "--selftest-violation", action="store_true",
        help="deterministically corrupt one log before checking, to "
             "prove the checker catches ordering violations and emits "
             "a shrunk repro",
    )
    args = parser.parse_args(argv)

    if args.experiment == "campaign":
        return run_campaign_command(args)
    if args.experiment == "list":
        for figure_id in _available():
            print(figure_id)
        return 0
    if args.full:
        os.environ["REPRO_BENCH_FULL"] = "1"
    targets = _available() if args.experiment == "all" else [args.experiment]
    for target in targets:
        blocks = run_figure_by_id(
            target, verbose=not args.quiet, processes=args.processes
        )
        for block in blocks:
            print(block)
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
