"""Churn campaigns: sustained join/leave/flap at 50-100 nodes.

Two complementary drivers over :class:`~repro.sim.evs_node.SimEVSCluster`:

* :func:`run_churn_scenario` — an EVS-checked endurance run: a
  :class:`~repro.sim.faults.Churn` generator (plus one flapping node)
  keeps crashing and restarting members every few hundred simulated
  milliseconds while per-node injectors submit ordered traffic; at the
  end every incarnation's log must satisfy every EVS axiom.  This is
  the ordering oracle for the gossip detector: failure detection may be
  wrong or slow, but it must never corrupt delivery.

* :func:`convergence_sweep` — the measurement companion: for each
  cluster size it runs crash->reconverge->rejoin->reconverge cycles
  and records view-change convergence time and control-plane traffic,
  for the gossip detector and for the Totem-style probe flood it
  replaces.  The resulting record (``bench_results/churn_convergence
  .json``) is what shows gossip keeping per-node control traffic
  bounded as N grows; its headline rates are guarded by
  ``python -m repro.bench.guard``.

Everything is simulated-time deterministic: re-running with the same
seed reproduces the record byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core import ProtocolConfig
from ..evs import EVSChecker
from ..membership import MembershipTimeouts
from ..net import GIGABIT
from .campaign import collect_observability, run_fault_workload
from .evs_node import SimEVSCluster
from .faults import Churn, FaultSchedule, Flap, Join
from .profiles import LIBRARY

#: Where the sweep record lands (next to kernel.json / codec.json).
DEFAULT_RECORD_PATH = os.path.join("bench_results", "churn_convergence.json")

#: Membership timeouts for the churn runs: the stock defaults, which
#: both detection paths (gossip suspicion, token-loss + probes) are
#: tuned against.
CHURN_TIMEOUTS = MembershipTimeouts(
    token_loss_ticks=60, gather_ticks=40, commit_ticks=80,
    probe_interval_ticks=25,
)

#: The churn generator takes one victim per period and restarts it
#: after the down time.
CHURN_PERIOD_S = 0.3
CHURN_DOWN_S = 0.18
#: One designated flapper exercises rapid rejoin churn: down half the
#: churn down time, every one and a half churn periods.
FLAP_PID = 1
FLAP_REPEATS = 3
#: Open-membership joiners spawn from this time on, one per period.
JOIN_START_S = 0.2
JOIN_PERIOD_S = 0.45
#: The shared fault run's workload interval, convergence timeout and
#: drain (:func:`~repro.sim.campaign.run_fault_workload`).
SUBMIT_INTERVAL_S = 0.05
CONVERGE_TIMEOUT_S = 8.0
DRAIN_S = 0.5


def _protocol_config() -> ProtocolConfig:
    return ProtocolConfig(personal_window=10, accelerated_window=8)


@dataclass
class ChurnOptions:
    """Knobs for one EVS-checked churn scenario."""

    seed: int = 0
    n_nodes: int = 50
    gossip: bool = True
    #: How many churn victims the generator takes (one per period).
    churn_events: int = 8
    #: Brand-new pids spawned mid-run (open membership; gossip only).
    #: Joiners get pids the deployment has never seen and must be
    #: pulled into the ring by the gossip detector alone.
    joins: int = 0


def _build_cluster(n_nodes: int, gossip: bool, seed: int) -> SimEVSCluster:
    return SimEVSCluster(
        n_nodes, GIGABIT, LIBRARY, _protocol_config(), CHURN_TIMEOUTS,
        gossip=gossip, gossip_seed=seed,
    )


def churn_schedule(options: ChurnOptions) -> FaultSchedule:
    """The declarative fault load for one scenario."""
    schedule = FaultSchedule()
    pool = tuple(pid for pid in range(options.n_nodes) if pid != FLAP_PID)
    schedule.add(Churn(
        at_s=0.05,
        pids=pool,
        down_s=CHURN_DOWN_S,
        period_s=CHURN_PERIOD_S,
        repeats=options.churn_events,
        seed=options.seed,
    ))
    if options.n_nodes > 2:
        schedule.add(Flap(
            at_s=0.1,
            pid=FLAP_PID,
            down_s=CHURN_DOWN_S / 2,
            period_s=CHURN_PERIOD_S * 1.5,
            repeats=FLAP_REPEATS,
        ))
    for index in range(options.joins):
        schedule.add(Join(
            at_s=JOIN_START_S + index * JOIN_PERIOD_S,
            pid=options.n_nodes + index,
        ))
    return schedule


def run_churn_scenario(options: ChurnOptions) -> Dict[str, Any]:
    """One seeded churn endurance run, fully EVS-checked.

    Returns a JSON-ready summary: convergence outcome, violations
    (empty on success), per-incarnation delivery counts and control
    traffic totals.
    """
    if options.joins and not options.gossip:
        raise ValueError(
            "open-membership joins need the gossip detection path"
        )
    cluster = _build_cluster(options.n_nodes, options.gossip, options.seed)
    schedule = churn_schedule(options)

    def install(cluster, start_injector):
        base_s = cluster.sim.now
        schedule.install(cluster, base_time_s=base_s)
        # Joiners start submitting ordered traffic shortly after they
        # spawn, so their deliveries are EVS-checked like everyone else's.
        for event in schedule.events:
            if isinstance(event, Join):
                cluster.sim.call_at(
                    base_s + event.at_s + 0.02,
                    lambda pid=event.pid: start_injector(pid),
                )

    horizon_s = (
        0.1 + CHURN_PERIOD_S * (options.churn_events + 1) + CHURN_DOWN_S
    )
    if options.joins:
        horizon_s = max(
            horizon_s, JOIN_START_S + options.joins * JOIN_PERIOD_S + 0.3,
        )
    # Churn leaves only crashed nodes behind, which the shared run
    # restarts: no cleanup of its own.
    converged, violations, delivered = run_fault_workload(
        cluster, install, horizon_s, "c", lambda cluster: None,
        SUBMIT_INTERVAL_S, CONVERGE_TIMEOUT_S, DRAIN_S,
    )

    incarnations = {
        pid: node.incarnation for pid, node in cluster.nodes.items()
    }
    observability = collect_observability(cluster)
    return {
        "seed": options.seed,
        "n_nodes": options.n_nodes,
        "gossip": options.gossip,
        "joins": options.joins,
        "joined_pids": sorted(
            pid for pid in cluster.nodes if pid >= options.n_nodes
        ),
        "schedule": schedule.to_jsonable(),
        "horizon_s": round(horizon_s, 4),
        "converged": converged,
        "violations": violations,
        "total_restarts": sum(incarnations.values()),
        "ctrl": cluster.ctrl_traffic(),
        "drops": observability["drops"],
        "traffic": observability["traffic"],
        "delivered_total": sum(delivered.values()),
    }


def _snapshot(cluster: SimEVSCluster) -> Tuple[int, int, int]:
    return (
        sum(n.ctrl_frames_sent for n in cluster.nodes.values()),
        sum(n.ctrl_frames_received for n in cluster.nodes.values()),
        sum(n.ctrl_bytes_sent for n in cluster.nodes.values()),
    )


def _measure_mode(n_nodes: int, gossip: bool, seed: int,
                  cycles: int) -> Dict[str, Any]:
    """Crash/rejoin convergence times + ctrl traffic for one mode."""
    cluster = _build_cluster(n_nodes, gossip, seed)
    cluster.run_until_converged(timeout_s=8.0)

    # Steady state: one quiet second of pure failure detection, no
    # membership changes.  This is the traffic that must stay bounded
    # per node as N grows — view changes cost O(n) joins per node in
    # either mode, but a quiet cluster should only pay for detection.
    sent0, recv0, bytes0 = _snapshot(cluster)
    cluster.run_for(1.0)
    sent1, recv1, bytes1 = _snapshot(cluster)
    steady = {
        "sent_per_node_hz": round((sent1 - sent0) / float(n_nodes), 2),
        "recv_per_node_hz": round((recv1 - recv0) / float(n_nodes), 2),
        "sent_bytes_per_node_hz": round(
            (bytes1 - bytes0) / float(n_nodes), 2
        ),
    }

    frames0, recv0, bytes0 = _snapshot(cluster)
    t_start = cluster.sim.now

    crash_times: List[float] = []
    rejoin_times: List[float] = []
    for cycle in range(cycles):
        victim = (seed * 31 + cycle * 7) % n_nodes
        t0 = cluster.sim.now
        cluster.crash(victim)
        crash_times.append(
            cluster.run_until_converged(timeout_s=8.0) - t0
        )
        t1 = cluster.sim.now
        cluster.restart(victim)
        rejoin_times.append(
            cluster.run_until_converged(timeout_s=8.0) - t1
        )

    checker = EVSChecker()
    checker.check_logs(cluster.logs())
    if checker.violations:
        raise AssertionError(
            "EVS violations during convergence sweep (n=%d gossip=%s): %s"
            % (n_nodes, gossip, checker.violations[:3])
        )

    elapsed = cluster.sim.now - t_start
    frames1, received1, bytes1 = _snapshot(cluster)
    denominator = max(elapsed, 1e-9) * n_nodes
    return {
        "crash_convergence_s": round(
            sum(crash_times) / len(crash_times), 6
        ),
        "crash_convergence_max_s": round(max(crash_times), 6),
        "rejoin_convergence_s": round(
            sum(rejoin_times) / len(rejoin_times), 6
        ),
        "steady": steady,
        "churn_sent_per_node_hz": round(
            (frames1 - frames0) / denominator, 2
        ),
        "churn_recv_per_node_hz": round(
            (received1 - recv0) / denominator, 2
        ),
        "churn_bytes_per_node_hz": round(
            (bytes1 - bytes0) / denominator, 2
        ),
    }


def convergence_sweep(
    ns: Tuple[int, ...] = (10, 25, 50, 100),
    seed: int = 1,
    cycles: int = 3,
) -> Dict[str, Any]:
    """Convergence time and control traffic vs cluster size.

    Runs both detection paths at every size.  The headline ``metrics``
    block is what the bench guard watches:

    * ``crash_convergence_rate_hz`` / ``rejoin_convergence_rate_hz`` —
      inverse mean view-change convergence time at the largest swept
      size with gossip (higher = faster reconfiguration);
    * ``ctrl_traffic_headroom`` — a 1 kHz per-node reference budget
      divided by the gossip detector's steady-state per-node receive
      rate at the largest size (higher = less control traffic).
    """
    sweep: List[Dict[str, Any]] = []
    for n in ns:
        entry: Dict[str, Any] = {"n_nodes": n}
        entry["gossip"] = _measure_mode(n, True, seed, cycles)
        entry["probes"] = _measure_mode(n, False, seed, cycles)
        sweep.append(entry)
    largest = sweep[-1]["gossip"]
    metrics = {
        "crash_convergence_rate_hz": round(
            1.0 / largest["crash_convergence_s"], 3
        ),
        "rejoin_convergence_rate_hz": round(
            1.0 / max(largest["rejoin_convergence_s"], 1e-9), 3
        ),
        "ctrl_traffic_headroom": round(
            1000.0 / max(largest["steady"]["recv_per_node_hz"], 1e-9), 4
        ),
    }
    return {
        "schema": 1,
        "seed": seed,
        "cycles": cycles,
        "ns": list(ns),
        "timeouts": {
            "token_loss_ticks": CHURN_TIMEOUTS.token_loss_ticks,
            "gather_ticks": CHURN_TIMEOUTS.gather_ticks,
            "commit_ticks": CHURN_TIMEOUTS.commit_ticks,
            "probe_interval_ticks": CHURN_TIMEOUTS.probe_interval_ticks,
        },
        "sweep": sweep,
        "metrics": metrics,
    }
