"""Seeded random fault-injection campaigns over the packet-level sim.

A campaign generates N random fault scenarios from one seed, runs each
against both the accelerated and the original-Ring configuration, and
validates every Extended Virtual Synchrony axiom over all process
incarnations' logs with :class:`~repro.evs.EVSChecker`.  When a
scenario fails, the campaign greedily shrinks its
:class:`~repro.sim.faults.FaultSchedule` to a minimal failing schedule
(delta-debugging one event at a time) and writes a repro file — seed,
scenario index, shrunk schedule, violations — so a failure is one
command away from a debugger.

Everything is derived from the campaign seed: the schedules, the loss
models, the workload, and the sim itself are deterministic, so the
summary JSON is byte-identical across runs with the same seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import ProtocolConfig
from ..evs import EVSChecker
from ..membership import MembershipTimeouts
from ..net import GIGABIT, LinkSpec, Timeout, no_loss
from ..records import write_record
from .evs_node import SimEVSCluster
from .faults import (
    Crash,
    FaultSchedule,
    Heal,
    LossSwap,
    Partition,
    Restart,
    TokenDrop,
)
from .profiles import LIBRARY, CostProfile

#: Where repro files and campaign summaries land: under the git-ignored
#: scratch tree, so a run never rewrites a tracked file.
DEFAULT_OUT_DIR = os.path.join("bench_results", "fresh", "campaigns")

#: The two protocol configurations every scenario runs against
#: (Section III-D: window 0 + conservative priority IS the original
#: Ring protocol, so this doubles as an acceleration regression net).
ACCELERATED_WINDOWS = (0, 2)

_TIMEOUTS = MembershipTimeouts(
    token_loss_ticks=30, gather_ticks=20, commit_ticks=40,
    probe_interval_ticks=15,
)


def _config_for(accelerated_window: int) -> ProtocolConfig:
    return ProtocolConfig(
        personal_window=10, accelerated_window=accelerated_window
    )


def _scenario_seed(seed: int, index: int) -> int:
    """Stable per-scenario seed (independent of scenario count)."""
    return (seed * 1_000_003 + 7919 * (index + 1)) & 0x7FFFFFFF


@dataclass
class CampaignOptions:
    """Campaign-wide knobs, all defaulted to the smoke-size campaign."""

    seed: int = 0
    scenarios: int = 10
    n_nodes: int = 3
    horizon_s: float = 0.8
    drain_s: float = 0.6
    converge_timeout_s: float = 6.0
    submit_interval_s: float = 0.02
    spec: LinkSpec = GIGABIT
    profile: CostProfile = LIBRARY
    out_dir: str = DEFAULT_OUT_DIR
    windows: Tuple[int, ...] = ACCELERATED_WINDOWS
    #: Deterministic log corruption applied before checking — the
    #: checker self-test (``--selftest-violation``).  Takes the logs
    #: dict and mutates it in place.
    corrupt_logs: Optional[Callable[[Dict], None]] = None


@dataclass
class ScenarioResult:
    """Outcome of one (schedule, accelerated_window) run."""

    index: int
    accelerated_window: int
    converged: bool
    violations: List[str] = field(default_factory=list)
    delivered: Dict[str, int] = field(default_factory=dict)
    repro_path: Optional[str] = None

    @property
    def failed(self) -> bool:
        return bool(self.violations) or not self.converged


def generate_schedule(rng: random.Random, n_nodes: int,
                      horizon_s: float) -> FaultSchedule:
    """Draw a random fault schedule for one scenario.

    At most ``n_nodes - 2`` processes are crashed without restart so a
    majority keeps the service alive; partitions always heal within the
    horizon (the runner force-heals during cleanup anyway, but keeping
    schedules self-contained makes shrunk repros readable).
    """
    schedule = FaultSchedule()
    pids = list(range(n_nodes))
    crashed: set = set()
    max_crashes = max(1, n_nodes - 2)
    for _ in range(rng.randint(1, 3)):
        at_s = round(rng.uniform(0.05, horizon_s * 0.6), 4)
        kind = rng.choice(("crash", "partition", "token_drop", "loss_swap"))
        if kind == "crash":
            candidates = [p for p in pids if p not in crashed]
            if len(crashed) >= max_crashes or not candidates:
                kind = "token_drop"
            else:
                pid = rng.choice(candidates)
                crashed.add(pid)
                schedule.add(Crash(at_s, pid))
                if rng.random() < 0.6:
                    restart_at = round(
                        at_s + rng.uniform(0.1, horizon_s * 0.35), 4
                    )
                    schedule.add(Restart(restart_at, pid))
                    crashed.discard(pid)
                continue
        if kind == "partition":
            shuffled = pids[:]
            rng.shuffle(shuffled)
            cut = rng.randint(1, n_nodes - 1)
            schedule.add(Partition(
                at_s,
                (tuple(sorted(shuffled[:cut])),
                 tuple(sorted(shuffled[cut:]))),
            ))
            heal_at = round(at_s + rng.uniform(0.15, horizon_s * 0.4), 4)
            schedule.add(Heal(heal_at))
        elif kind == "token_drop":
            schedule.add(TokenDrop(at_s, count=rng.randint(1, 3)))
        elif kind == "loss_swap":
            schedule.add(LossSwap(
                at_s,
                model="bernoulli",
                p=round(rng.uniform(0.002, 0.02), 4),
                seed=rng.randrange(1 << 30),
                spare_token=True,
            ))
            off_at = round(at_s + rng.uniform(0.1, horizon_s * 0.4), 4)
            schedule.add(LossSwap(off_at, model="none"))
    return schedule


def run_fault_workload(
    cluster: SimEVSCluster,
    install: Callable[[SimEVSCluster, Callable[[int], None]], None],
    horizon_s: float,
    payload_prefix: str,
    options: Any,
    cleanup: Callable[[SimEVSCluster], None],
    corrupt_logs: Optional[Callable[[Dict], None]] = None,
) -> Tuple[bool, List[str], Dict[str, int]]:
    """Ordered traffic under a fault load, then the EVS verdict.

    The run every fault campaign shares: converge cold, start one
    workload injector per node, ``install(cluster, start_injector)`` the
    fault load (``start_injector(pid)`` serves nodes the load itself
    brings to life), run ``horizon_s``, ``cleanup(cluster)`` what the
    load left behind, restart every crashed node, stop the workload,
    re-converge, drain, and check every incarnation's log.  ``options``
    supplies ``submit_interval_s``, ``converge_timeout_s``, ``drain_s``.

    Returns ``(converged, violations, delivered)``; ``delivered`` counts
    application messages per ``"pid.incarnation"`` log.
    """
    cluster.run_until_converged(timeout_s=options.converge_timeout_s)

    submitted: Dict[Tuple[int, int], List[Any]] = {}
    stop = {"flag": False}

    def injector(node):
        counter = 0
        while True:
            yield Timeout(options.submit_interval_s)
            if stop["flag"]:
                return
            if node.crashed:
                continue
            payload = "%s%d.%d.%d" % (
                payload_prefix, node.pid, node.incarnation, counter)
            counter += 1
            node.submit(payload)
            submitted.setdefault(
                (node.pid, node.incarnation), []
            ).append(payload)

    def start_injector(pid: int) -> None:
        cluster.sim.spawn(injector(cluster.nodes[pid]), "inject%d" % pid)

    for pid in sorted(cluster.nodes):
        start_injector(pid)
    install(cluster, start_injector)
    cluster.run_for(horizon_s)

    # Make the world whole again so the run can quiesce.
    cleanup(cluster)
    for pid in sorted(cluster.nodes):
        if cluster.nodes[pid].crashed:
            cluster.restart(pid)
    stop["flag"] = True
    converged = True
    try:
        cluster.run_until_converged(timeout_s=options.converge_timeout_s)
    except RuntimeError:
        converged = False
    cluster.run_for(options.drain_s)

    logs = cluster.logs()
    if corrupt_logs is not None:
        corrupt_logs(logs)
    # Self-delivery holds for the final incarnation of every live node
    # (cleanup restarted the crashed ones); earlier incarnations died
    # mid-flight and EVS does not promise them delivery.
    final_keys = {
        (pid, node.incarnation)
        for pid, node in cluster.nodes.items() if not node.crashed
    }
    relevant_submitted = {
        key: payloads for key, payloads in submitted.items()
        if key in final_keys
    }
    checker = EVSChecker()
    checker.check_logs(logs, relevant_submitted)

    delivered = {
        "%d.%d" % key: sum(
            1 for event in log
            if not hasattr(event, "configuration")
        )
        for key, log in sorted(logs.items())
    }
    return converged, checker.violations, delivered


def run_scenario(
    schedule: FaultSchedule,
    accelerated_window: int,
    options: CampaignOptions,
    observability: Optional[Dict] = None,
) -> Tuple[bool, List[str], Dict[str, int]]:
    """Run one schedule against one configuration.

    Returns :func:`run_fault_workload`'s ``(converged, violations,
    delivered_counts)``.  When ``observability`` (a dict) is passed, it
    is filled in place with the run's drop counters and per-class
    traffic breakdown — the campaign summary threads these into its JSON
    without changing this function's return shape.
    """
    cluster = SimEVSCluster(
        options.n_nodes, options.spec, options.profile,
        _config_for(accelerated_window), _TIMEOUTS,
    )

    def heal_everything(cluster: SimEVSCluster) -> None:
        cluster.heal()
        cluster.switch.clear_fault_filters()
        for pid in cluster.switch.host_ids:
            cluster.switch.set_port_loss(pid, no_loss)

    outcome = run_fault_workload(
        cluster,
        lambda cluster, _start_injector: schedule.install(cluster),
        options.horizon_s, "m", options, heal_everything,
        corrupt_logs=options.corrupt_logs,
    )
    if observability is not None:
        observability.update(collect_observability(cluster))
    return outcome


def collect_observability(cluster: SimEVSCluster) -> Dict:
    """Deterministic drop/traffic block for campaign and churn summaries.

    ``malformed``/``oversize`` are the wire-boundary counters the UDP
    transport tracks; the packet-level sim has no byte parsing, so they
    are structurally present but always zero here — the key layout
    matches the emulation's so tooling reads both.
    """
    switch = cluster.switch
    ports = [switch.port(h) for h in switch.host_ids]
    return {
        "drops": {
            "port_overflow": sum(p.drops_overflow for p in ports),
            "port_injected": sum(p.drops_injected for p in ports),
            "partition": switch.drops_partition,
            "fault_filter": switch.drops_fault,
            "malformed": 0,
            "oversize": 0,
        },
        "traffic": {
            "frames_by_class": dict(sorted(switch.class_frames.items())),
            "bytes_by_class": dict(sorted(switch.class_bytes.items())),
        },
    }


def shrink_schedule(
    schedule: FaultSchedule,
    fails: Callable[[FaultSchedule], bool],
) -> FaultSchedule:
    """Greedy delta-debugging: drop or weaken events while failing.

    Removal is tried first; once nothing can be removed, recurring
    events (flap/churn) are weakened by lowering their repeat count.
    Every accepted candidate strictly decreases the measure
    ``(event count, total repeats)``, so the loop terminates even for
    self-rescheduling generator events.
    """
    changed = True
    while changed and len(schedule):
        changed = False
        for index in range(len(schedule)):
            candidate = schedule.without(index)
            if fails(candidate):
                schedule = candidate
                changed = True
                break
        if changed:
            continue
        for index in range(len(schedule)):
            for candidate in schedule.weakened(index):
                if fails(candidate):
                    schedule = candidate
                    changed = True
                    break
            if changed:
                break
    return schedule


def run_campaign(options: CampaignOptions,
                 progress: Optional[Callable[[str], None]] = None) -> Dict:
    """Run the full campaign; returns the deterministic summary dict."""

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    scenario_reports: List[Dict] = []
    failures = 0
    for index in range(options.scenarios):
        rng = random.Random(_scenario_seed(options.seed, index))
        schedule = generate_schedule(rng, options.n_nodes, options.horizon_s)
        runs: List[Dict] = []
        for window in options.windows:
            observability: Dict = {}
            converged, violations, delivered = run_scenario(
                schedule, window, options, observability=observability,
            )
            result = ScenarioResult(
                index=index,
                accelerated_window=window,
                converged=converged,
                violations=violations,
                delivered=delivered,
            )
            if result.failed:
                failures += 1
                result.repro_path = _emit_repro(
                    schedule, result, options
                )
                note("scenario %d aw=%d FAILED (%d violation(s)) -> %s"
                     % (index, window, len(violations), result.repro_path))
            else:
                note("scenario %d aw=%d ok (%d events)"
                     % (index, window, len(schedule)))
            runs.append({
                "accelerated_window": window,
                "converged": result.converged,
                "violations": result.violations,
                "delivered": result.delivered,
                "repro": result.repro_path,
                "drops": observability.get("drops", {}),
                "traffic": observability.get("traffic", {}),
            })
        scenario_reports.append({
            "index": index,
            "scenario_seed": _scenario_seed(options.seed, index),
            "schedule": schedule.to_jsonable(),
            "runs": runs,
        })
    summary = {
        "seed": options.seed,
        "scenarios": options.scenarios,
        "n_nodes": options.n_nodes,
        "windows": list(options.windows),
        "horizon_s": options.horizon_s,
        "failures": failures,
        "results": scenario_reports,
    }
    path = write_summary(summary, options.out_dir)
    summary["summary_path"] = path
    return summary


def _emit_repro(schedule: FaultSchedule, result: ScenarioResult,
                options: CampaignOptions) -> str:
    """Shrink the failing schedule and write the repro file."""

    def fails(candidate: FaultSchedule) -> bool:
        converged, violations, _delivered = run_scenario(
            candidate, result.accelerated_window, options
        )
        return bool(violations) or not converged

    shrunk = shrink_schedule(schedule, fails)
    repro = {
        "seed": options.seed,
        "scenario_index": result.index,
        "scenario_seed": _scenario_seed(options.seed, result.index),
        "accelerated_window": result.accelerated_window,
        "n_nodes": options.n_nodes,
        "horizon_s": options.horizon_s,
        "violations": result.violations,
        "schedule": shrunk.to_jsonable(),
        "original_schedule": schedule.to_jsonable(),
        "schedule_human": shrunk.describe(),
    }
    name = "repro_seed%d_s%d_aw%d.json" % (
        options.seed, result.index, result.accelerated_window
    )
    return write_record(repro, os.path.join(options.out_dir, name))


def write_summary(summary: Dict, out_dir: str) -> str:
    """Byte-stable campaign summary (sorted keys, no wall-clock).

    The filename carries seed AND scenario count so a smoke-sized run
    never clobbers a full campaign's standing summary.
    """
    return write_record(summary, os.path.join(
        out_dir,
        "campaign_seed%d_n%d.json" % (summary["seed"], summary["scenarios"]),
    ))


def replay_repro(path: str) -> Tuple[bool, List[str]]:
    """Re-run a repro file's shrunk schedule; returns (converged, violations)."""
    with open(path) as handle:
        repro = json.load(handle)
    options = CampaignOptions(
        seed=repro["seed"],
        n_nodes=repro["n_nodes"],
        horizon_s=repro["horizon_s"],
    )
    schedule = FaultSchedule.from_jsonable(repro["schedule"])
    converged, violations, _delivered = run_scenario(
        schedule, repro["accelerated_window"], options
    )
    return converged, violations


def corrupt_first_log(logs: Dict) -> None:
    """Deterministic ordering corruption for the checker self-test.

    Swaps the first two application messages of the lexicographically
    first log that has at least two — survivors keep the true order, so
    virtual synchrony (and seq order) must flag it.
    """
    for key in sorted(logs):
        log = logs[key]
        message_indices = [
            i for i, event in enumerate(log)
            if not hasattr(event, "configuration")
        ]
        if len(message_indices) >= 2:
            a, b = message_indices[0], message_indices[1]
            log[a], log[b] = log[b], log[a]
            return
