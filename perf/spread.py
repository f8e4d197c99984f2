"""Workload ``loop_spread``: four Spread-like daemons on the in-process
loopback ring, sixteen clients in eight groups — the engine with no
clock, socket or codec under it.

A segment is a fresh ``SpreadCluster`` (the loopback ring's delivery log
is unbounded): multicasts in batches, ``flush()`` after each batch, then
every client ``receive()``s.  The timed region is the batches; building
the cluster and checking the receipts are outside it.

One thread, all CPU: the host's clock-speed flips (±25% for a minute at a
time) move this workload exactly as they move the calibration loop, so
the untraced pass reads the loop between segments and reports each
segment at ``measure.REFERENCE_MOPS``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

import checks
import measure
import rollup

N_DAEMONS = 4
N_CLIENTS = 16
N_GROUPS = 8
GROUPS_PER_CLIENT = 2
PAYLOAD_BYTES = 200
#: Multicasts between two ``flush()`` calls.
BATCH = 400
#: One multicast in this many asks for Safe delivery.
SAFE_EVERY = 4
LAYERS = ("core", "spreadlike", "harness")


@dataclass
class Plan:
    seconds: float
    segment_multicasts: int
    warm_multicasts: int


@dataclass
class Deployment:
    cluster: Any
    clients: List[Any]
    #: For each group index, the client indices that joined it.
    members: List[List[int]]


@dataclass
class Segment:
    wall_s: float
    multicasts: int
    agreed_ms: List[float]
    safe_ms: List[float]
    check: checks.CheckResult
    #: Read through seams (``cluster.ring.steps_taken``, each daemon's
    #: ``messages_routed``); 0 and counted in ``seams_missing`` when gone.
    steps: int
    routed: int
    seams_missing: int
    seconds_by_package: Dict[str, float]
    #: ``measure.reference_speed_factor`` of the calibration readings on
    #: either side of the segment; set by ``measure.run_calibrated``.
    speed_factor: float = 1.0

    @property
    def rate(self) -> float:
        """Multicasts per wall-clock second, as measured."""
        return self.multicasts / self.wall_s

    @property
    def rate_at_reference(self) -> float:
        return self.rate * self.speed_factor


def memberships(seed: int) -> List[Tuple[int, ...]]:
    """Each client's groups: seeded, two distinct groups per client and
    every group the same size, so no multicast goes to an empty group."""
    rng = random.Random(seed * 104729 + 2)
    slots = [g for g in range(N_GROUPS)
             for _ in range(N_CLIENTS * GROUPS_PER_CLIENT // N_GROUPS)]
    while True:
        rng.shuffle(slots)
        picks = [tuple(slots[c * GROUPS_PER_CLIENT:(c + 1) * GROUPS_PER_CLIENT])
                 for c in range(N_CLIENTS)]
        if all(len(set(p)) == GROUPS_PER_CLIENT for p in picks):
            return picks


def setup(seed: int) -> Deployment:
    """Everything ``setup_s`` covers: daemons, connected clients, joined
    groups, membership notices drained."""
    from repro.spreadlike import SpreadCluster

    cluster = SpreadCluster(N_DAEMONS)
    clients = [cluster.client("c%d" % c, daemon=c % N_DAEMONS)
               for c in range(N_CLIENTS)]
    members: List[List[int]] = [[] for _ in range(N_GROUPS)]
    for c, groups in enumerate(memberships(seed)):
        for g in groups:
            clients[c].join("g%d" % g)
            members[g].append(c)
    cluster.flush()
    for client in clients:
        client.receive()
    return Deployment(cluster, clients, members)


def teardown(deployment: Deployment) -> None:
    """An in-process cluster holds no thread, socket or file."""


def run_segment(seed: int, segment_index: int, multicasts: int,
                traced: bool = False, corrupt: bool = False) -> Segment:
    from repro.core import Service

    deployment = setup(seed)
    cluster, clients = deployment.cluster, deployment.clients
    rng = random.Random((seed * 15485863 + segment_index) * 31 + 3)
    payload = rng.randbytes(PAYLOAD_BYTES)
    senders = [clients[rng.randrange(N_CLIENTS)] for _ in range(multicasts)]
    targets = [rng.randrange(N_GROUPS) for _ in range(multicasts)]
    services = [Service.SAFE if i % SAFE_EVERY == 0 else Service.AGREED
                for i in range(multicasts)]
    rng.shuffle(services)
    group_names = ["g%d" % g for g in range(N_GROUPS)]
    sent_at = [0.0] * multicasts
    received_at = [0.0] * multicasts
    inboxes: List[List[Any]] = [[] for _ in clients]

    def batches():
        clock = time.perf_counter
        start = clock()
        for low in range(0, multicasts, BATCH):
            high = min(low + BATCH, multicasts)
            for i in range(low, high):
                sent_at[i] = clock()
                senders[i].multicast(group_names[targets[i]], (i, payload),
                                     services[i])
            cluster.flush()
            for inbox, client in zip(inboxes, clients):
                inbox.extend(client.receive())
            done = clock()
            for i in range(low, high):
                received_at[i] = done
        return clock() - start

    seconds: Dict[str, float] = {}
    if traced:
        wall_s, seconds = rollup.profile_call(batches)
    else:
        wall_s = batches()

    expected: Dict[str, Set[int]] = {"c%d" % c: set() for c in range(N_CLIENTS)}
    for i, g in enumerate(targets):
        for c in deployment.members[g]:
            expected["c%d" % c].add(i)
    logs = {"c%d" % c: [(event.seq, event.payload[0]) for event in inbox]
            for c, inbox in enumerate(inboxes)}
    agreed_ms, safe_ms = [], []
    for i in range(multicasts):
        latency = (received_at[i] - sent_at[i]) * 1e3
        (safe_ms if services[i] is Service.SAFE else agreed_ms).append(latency)
    if corrupt:
        print("selftest: c1 " + checks.corrupt_log(logs["c1"]))
    steps = getattr(getattr(cluster, "ring", None), "steps_taken", None)
    routed = [getattr(daemon, "messages_routed", None)
              for daemon in getattr(cluster, "daemons", {}).values()]
    routed_missing = not routed or None in routed
    return Segment(
        wall_s=wall_s, multicasts=multicasts,
        agreed_ms=agreed_ms, safe_ms=safe_ms,
        check=checks.check_witnessed_logs(logs, expected),
        steps=steps or 0,
        routed=0 if routed_missing else sum(routed),
        seams_missing=(steps is None) + routed_missing,
        seconds_by_package=seconds,
    )


def run_segments(seed: int, plan: Plan, corrupt: bool = False) -> List[Segment]:
    """The warm segment (discarded), then segments until ``plan.seconds``
    have passed, a calibration reading between every two."""
    run_segment(seed, -1, plan.warm_multicasts)
    return measure.run_calibrated(
        lambda index: run_segment(seed, index, plan.segment_multicasts,
                                  corrupt=corrupt),
        plan.seconds)


def plan_for(seconds: float, smoke: bool) -> Plan:
    if smoke:
        return Plan(0.0, 4_000, 4_000)
    # 20k multicasts take ~0.55 s: a calibration reading is never far from
    # the work it scales.
    return Plan(seconds, 20_000, 20_000)


def untraced(workload: str, seed: int, seconds: float, smoke: bool,
             selftest: bool):
    """-> (check, end-to-end metrics, info, per-segment msgs/s)."""
    segments = run_segments(seed, plan_for(seconds, smoke), corrupt=selftest)
    info = {"agreed_samples_per_segment": len(segments[0].agreed_ms),
            "safe_samples_per_segment": len(segments[0].safe_ms),
            "segment_msgs_per_wall_s": [s.rate for s in segments]}
    return (checks.combine([s.check for s in segments]), end_to_end(segments),
            info, [s.rate_at_reference for s in segments])


def traced(workload: str, seed: int, seconds: float, smoke: bool,
           selftest: bool):
    """-> (check, per-layer metrics, reference msgs/s per segment, traced
    msgs/s, seams missing).  Half the time goes to untraced segments."""
    plan = plan_for(seconds / 2.0, smoke)
    segments = run_segments(seed, plan)
    profiled = run_segment(seed, len(segments), plan.segment_multicasts,
                           traced=True, corrupt=selftest)
    check = checks.combine([s.check for s in segments] + [profiled.check])
    return (check, layer_metrics(segments[0], profiled),
            [s.rate for s in segments], profiled.rate, profiled.seams_missing)


def end_to_end(segments: List[Segment]) -> Dict[str, float]:
    """Latency here is the time from ``multicast()`` to the end of the
    ``receive()`` sweep that returned the message to every member.  Rates
    and latencies are at the reference host speed."""
    agreed = measure.latency_percentiles(
        [[x / s.speed_factor for x in s.agreed_ms] for s in segments], (0.5,))
    safe = measure.latency_percentiles(
        [[x / s.speed_factor for x in s.safe_ms] for s in segments], (0.5,))
    return {
        "msgs_per_s": measure.median_of_segments(
            [s.rate_at_reference for s in segments]),
        "agreed_p50_ms": agreed[0.5], "safe_p50_ms": safe[0.5],
    }


def layer_metrics(untraced: Segment, traced: Segment) -> Dict[str, float]:
    shares = rollup.shares(traced.seconds_by_package, LAYERS)
    out = {"%s.self_share" % layer: share for layer, share in shares.items()}
    out["spreadlike.routed_per_msg"] = untraced.routed / untraced.multicasts
    out["harness.steps_per_kmsg"] = 1e3 * untraced.steps / untraced.multicasts
    return out
