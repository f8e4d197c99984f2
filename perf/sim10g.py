"""Workload ``sim_10g``: eight daemons on a simulated 10-gigabit switch at
2000 Mbps offered load — the run every figure sweep repeats.

A segment is one fresh ``SimCluster`` and one ``run()``; only ``run()``
is timed.  The simulated outputs (latency, events, drops) depend on the
seed alone and repeat exactly; wall time does not.

One thread, all CPU: the host's clock-speed flips move ``run()`` exactly
as they move the calibration loop, so the untraced pass reads the loop
between segments and reports ``msgs_per_s`` at ``measure.REFERENCE_MOPS``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List

import checks
import measure
import rollup

N_NODES = 8
PAYLOAD_BYTES = 1350
OFFERED_BPS = 2000e6
#: Messages still queued when the injectors stop at the end of a run are
#: cut off, not lost; a backlog above one personal window means the ring
#: did not keep up.
BACKLOG_ALLOWANCE = 40
#: Simulated seconds of the kernel-only dispatch run.
DISPATCH_RUN_S = 0.1
LAYERS = ("core", "net", "sim")


@dataclass
class Plan:
    #: Simulated seconds of a segment and of its discarded warm-up part.
    duration_s: float
    warmup_s: float
    #: Wall seconds of untraced segments: they repeat until these pass.
    seconds: float
    #: Simulated seconds of the one run that warms the interpreter.
    warm_run_s: float


@dataclass
class Segment:
    wall_s: float
    delivered_everywhere: int
    submitted: int
    events: int
    result: Any
    #: Traced pass only: per node, the ``seq`` of every delivery in order,
    #: and cProfile self time by package.
    delivery_logs: Dict[int, List[int]]
    seconds_by_package: Dict[str, float]
    #: ``measure.reference_speed_factor`` of the calibration readings on
    #: either side of the segment; set by ``measure.run_calibrated``.
    speed_factor: float = 1.0

    @property
    def rate(self) -> float:
        """Messages delivered at every node per wall-clock second."""
        return self.delivered_everywhere / self.wall_s

    @property
    def rate_at_reference(self) -> float:
        return self.rate * self.speed_factor


def setup(seed: int, duration_s: float = 0.5, deliver_callback=None):
    """Everything ``setup_s`` covers: a cluster with its injectors armed."""
    from repro.bench.experiments import tuned_configs
    from repro.core import Service
    from repro.net import TEN_GIGABIT
    from repro.sim import DAEMON
    from repro.sim.cluster import SimCluster

    cluster = SimCluster(
        N_NODES, TEN_GIGABIT, DAEMON,
        tuned_configs(TEN_GIGABIT)["accelerated"],
        payload_size=PAYLOAD_BYTES, service=Service.AGREED, seed=seed,
        deliver_callback=deliver_callback,
    )
    cluster.inject_at_rate(OFFERED_BPS, duration_s)
    return cluster


def teardown(cluster) -> None:
    """A simulated cluster holds no thread, socket or file."""


def run_segment(seed: int, duration_s: float, warmup_s: float,
                traced: bool = False) -> Segment:
    logs: Dict[int, List[int]] = {pid: [] for pid in range(N_NODES)}

    def on_deliver(pid, message):
        logs[pid].append(message.seq)

    cluster = setup(seed, duration_s, on_deliver if traced else None)

    def timed():
        start = time.perf_counter()
        result = cluster.run(duration_s, warmup_s, offered_bps=OFFERED_BPS)
        return result, time.perf_counter() - start

    seconds: Dict[str, float] = {}
    if traced:
        (result, wall_s), seconds = rollup.profile_call(timed)
    else:
        result, wall_s = timed()
    nodes = cluster.nodes.values()
    return Segment(
        wall_s=wall_s,
        delivered_everywhere=min(n.participant.stats.delivered for n in nodes),
        submitted=sum(n.participant.stats.messages_initiated for n in nodes)
        + result.end_backlog,
        events=getattr(getattr(cluster, "sim", None), "event_count", 0),
        result=result,
        delivery_logs=logs,
        seconds_by_package=seconds,
    )


def check(segments: List[Segment]) -> checks.CheckResult:
    """Failed: backlog beyond the allowance.  Order (traced pass, where
    deliveries are logged): every node delivers consecutive ``seq``."""
    attempted = failed = 0
    order_ok = True
    details = []
    for segment in segments:
        attempted += segment.submitted
        failed += max(0, segment.result.end_backlog - BACKLOG_ALLOWANCE)
        for pid, log in segment.delivery_logs.items():
            if log and log != list(range(log[0], log[0] + len(log))):
                order_ok = False
                details.append("node %d delivered out of sequence" % pid)
    return checks.CheckResult(attempted, failed, order_ok, "; ".join(details))


def plan_for(seconds: float, smoke: bool, traced: bool) -> Plan:
    if smoke:
        return Plan(0.02, 0.006, 0.0, 0.02)
    if traced:
        # The run the figure sweeps make, and the one whose counts the
        # README records; 8-10 s of wall time, three times that profiled.
        return Plan(0.5, 0.15, 0.0, 0.05)
    # A fifth of that run (~1.7 s of wall time), so that a calibration
    # reading is never far from the work it scales.
    return Plan(0.1, 0.03, seconds, 0.05)


def warm(seed: int, plan: Plan) -> None:
    run_segment(seed, plan.warm_run_s, plan.warm_run_s * 0.3)


def untraced(workload: str, seed: int, seconds: float, smoke: bool,
             selftest: bool):
    """-> (check, end-to-end metrics, info, per-segment msgs/s)."""
    plan = plan_for(seconds, smoke, traced=False)
    warm(seed, plan)
    segments = measure.run_calibrated(
        lambda _: run_segment(seed, plan.duration_s, plan.warmup_s),
        plan.seconds)
    info = {"latency_samples": segments[0].result.latency.count,
            "sim_latency_us": segments[0].result.latency_us,
            "segment_msgs_per_wall_s": [s.rate for s in segments]}
    return (check(segments), end_to_end(segments), info,
            [s.rate_at_reference for s in segments])


def traced(workload: str, seed: int, seconds: float, smoke: bool,
           selftest: bool):
    """-> (check, per-layer metrics, reference msgs/s per segment, traced
    msgs/s, seams missing)."""
    plan = plan_for(seconds, smoke, traced=True)
    warm(seed, plan)
    reference = run_segment(seed, plan.duration_s, plan.warmup_s)
    profiled = run_segment(seed, plan.duration_s, plan.warmup_s, traced=True)
    if selftest:
        print("selftest: node 1 "
              + checks.corrupt_log(profiled.delivery_logs[1]))
    return (check([reference, profiled]), layer_metrics(reference, profiled),
            [reference.rate], profiled.rate, int(not reference.events))


def end_to_end(segments: List[Segment]) -> Dict[str, float]:
    """``msgs_per_s`` is at the reference host speed.  The latency is in
    *simulated* milliseconds (the paper's y-axis), and the cluster orders
    Agreed only: ``safe_p50_ms`` mirrors ``agreed_p50_ms``."""
    latency = segments[0].result.latency
    return {
        "msgs_per_s": measure.median_of_segments(
            [s.rate_at_reference for s in segments]),
        "agreed_p50_ms": latency.p50_s * 1e3,
        "safe_p50_ms": latency.p50_s * 1e3,
    }


def dispatch_events_per_s() -> float:
    """The DES kernel alone: the process population of the repo's
    ``benchmarks/test_kernel_events_per_sec.py::_one_dispatch_run``,
    re-created here so the benchmark reads nothing outside its directory."""
    from repro.net.engine import Signal, Simulator, Timeout

    sim = Simulator()
    pause = Timeout(1e-6)
    zero = Timeout(0.0)
    signals = [Signal(sim, "s%d" % i) for i in range(8)]

    def sleeper(idx):
        mine = signals[idx % 8]
        peer = signals[(idx + 1) % 8]
        i = 0
        while True:
            yield pause
            i += 1
            if not i & 7:
                peer.fire()
                yield zero
            if not i & 15:
                yield mine

    def ticker():
        def noop():
            return None

        while True:
            yield pause
            sim.call_in(1e-6, noop)

    for i in range(16):
        sim.spawn(sleeper(i), "p%d" % i)
    sim.spawn(ticker(), "tick")
    start = time.perf_counter()
    sim.run(until=DISPATCH_RUN_S)
    return sim.event_count / (time.perf_counter() - start)


def layer_metrics(untraced: Segment, traced: Segment) -> Dict[str, float]:
    shares = rollup.shares(traced.seconds_by_package, LAYERS)
    result = untraced.result
    out = {"%s.self_share" % layer: share for layer, share in shares.items()}
    out.update({
        "net.events_per_msg": untraced.events / untraced.delivered_everywhere,
        "sim.events": untraced.events,
        "sim.switch_drops": result.switch_drops,
        "sim.retransmissions": result.retransmissions,
        "sim.tokens_resent": result.tokens_resent,
        "sim.achieved_mbps": result.achieved_mbps,
        "sim.latency_us": result.latency_us,
        "sim.events_per_s": untraced.events / untraced.wall_s,
        "net.dispatch_events_per_s": dispatch_events_per_s(),
        "core.msgs_per_token_round": (
            untraced.delivered_everywhere
            / (result.rounds_per_s * result.duration_s)),
        "core.retransmissions_per_kmsg": (
            1e3 * result.retransmissions / untraced.delivered_everywhere),
    })
    return out
