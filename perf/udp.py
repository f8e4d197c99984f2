"""Workloads ``udp_sat`` and ``udp_paced``: a 3-node ``EmulatedRing`` on
localhost UDP, driven by one generator thread (the caller's).

The untraced pass touches only the documented surface —
``EmulatedRing(n, config)``, ``start``, ``submit``,
``nodes[pid].delivered``, ``drain_delivered``, ``stop`` — so a refactor
of the node loop cannot break the end-to-end numbers.  The traced pass
adds the forwarding proxies of :mod:`seams` and reads counters
(``participant.stats``, ``tokens_resent``, transport datagram counts)
through :func:`_read`, which reports a missing attribute instead of
raising.

Every wait has a deadline: a wedged ring yields failed messages, not a
hang.
"""

from __future__ import annotations

import os
import queue
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import checks
import measure
import seams

N_NODES = 3
PAYLOAD_BYTES = 1350
#: ``udp_sat``: messages submitted and not yet delivered at the observer.
OUTSTANDING = 64
#: ``udp_paced``: mean Poisson arrival rate, about a fifth of what
#: ``udp_sat`` settles at on the reference host.
PACED_RATE = 1000.0
#: A measured message not at every node this long after the last submit
#: has failed.
DELIVERY_DEADLINE_S = 5.0
#: Nodes 1..2 are drained at least this often: a ``delivered`` queue left
#: to grow costs the ring ~20% over 25 s.
SIDE_DRAIN_S = 0.02
#: Longest single wait on the observer's queue.
MAX_WAIT_S = 0.02
#: Calls timed for each ``wire.*_us`` metric.
WIRE_CALLS = 20_000


@dataclass
class Plan:
    warm_s: float
    segment_s: float
    n_segments: int

    @property
    def total_s(self) -> float:
        return self.warm_s + self.segment_s * self.n_segments


def plan_for(workload: str, seconds: float, smoke: bool) -> Plan:
    """Cut segments, never their length or the warm-up, to fit ``seconds``.
    (Unpinned, the ring delivers ~19k msgs/s for its first ~1.3 s and then
    settles at 5k; pinned to one CPU, as ``run.py`` runs it, it starts as
    it goes on, and the warm-up covers imports still lazy at ``start()``.)"""
    if smoke:
        return Plan(1.0, 1.0, 1)
    segment_s = 4.0 if workload == "udp_sat" else 5.0
    return Plan(3.0, segment_s, max(1, int(seconds // segment_s)))


@dataclass
class Observation:
    """What one driven ring produced, before any metric is derived."""

    rates: List[float] = field(default_factory=list)
    agreed_ms: List[List[float]] = field(default_factory=list)
    safe_ms: List[List[float]] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    logs: Dict[int, List[int]] = field(default_factory=dict)
    first_measured: int = 0
    submitted: int = 0
    measured_s: float = 0.0
    #: Traced pass only: counter deltas over the measured segments, and
    #: the per-node seam recorders.
    counters: Dict[str, float] = field(default_factory=dict)
    recorders: Optional[Sequence[seams.NodeRecorder]] = None
    seams_missing: int = 0
    sample_message: Any = None
    sample_token: Any = None

    def check(self, corrupt: bool = False) -> checks.CheckResult:
        if corrupt:
            print("selftest: node 1 " + checks.corrupt_log(self.logs[1]))
        return checks.check_node_logs(
            self.logs, range(self.first_measured, self.submitted))


def build_ring():
    from repro.core import ProtocolConfig
    from repro.emulation import EmulatedRing

    return EmulatedRing(N_NODES, ProtocolConfig())


def setup(seed: int):
    """Everything ``setup_s`` covers: a started ring, ready for a submit."""
    return build_ring().start()


def teardown(ring) -> None:
    ring.stop()


class _Driver:
    """The generator thread's state while it drives one ring."""

    def __init__(self, ring, plan: Plan, seed: int, closed_loop: bool,
                 recorders: Optional[Sequence[seams.NodeRecorder]]) -> None:
        from repro.core import Service

        self.ring = ring
        self.plan = plan
        self.closed_loop = closed_loop
        self.recorders = recorders
        self.rng = random.Random(seed)
        self.payload = self.rng.randbytes(PAYLOAD_BYTES)
        self.agreed = Service.AGREED
        self.safe = Service.SAFE
        self.observer_queue = ring.nodes[0].delivered
        self.logs: Dict[int, List[int]] = {pid: [] for pid in ring.nodes}
        self.side_drained = 0.0
        #: Per id: when latency starts (submit or due time) and, once the
        #: observer dequeued it, when it ended.
        self.started: List[float] = []
        self.ended: List[float] = []
        self.is_safe: List[bool] = []
        self.sample_message = None
        self.counters_at: List[Dict[str, float]] = []
        self.seams_missing = 0

    # -- observing -------------------------------------------------------

    def _take(self, message, now: float) -> None:
        ident = message.payload[0]
        self.logs[0].append(ident)
        self.ended[ident] = now

    def _drain_observer(self) -> int:
        taken = 0
        get = self.observer_queue.get_nowait
        try:
            while True:
                message = get()
                self._take(message, time.perf_counter())
                taken += 1
        except queue.Empty:
            return taken

    def _drain_side(self, now: float) -> None:
        self.side_drained = now
        for pid, node in self.ring.nodes.items():
            if pid:
                fresh = node.drain_delivered()
                if fresh:
                    self.sample_message = fresh[-1]
                    self.logs[pid].extend(m.payload[0] for m in fresh)

    def _everywhere(self) -> int:
        return min(len(log) for log in self.logs.values())

    def _wait(self, timeout: float) -> int:
        """Block up to ``timeout`` for the observer; returns messages taken."""
        try:
            message = self.observer_queue.get(timeout=timeout)
        except queue.Empty:
            return 0
        self._take(message, time.perf_counter())
        return 1 + self._drain_observer()

    # -- driving ---------------------------------------------------------

    def run(self, due: Optional[List[float]] = None,
            senders: Optional[List[int]] = None,
            safe_flags: Optional[List[bool]] = None) -> Observation:
        """Closed loop when ``due`` is None, else open loop on that
        schedule (seconds from the start, warm-up included)."""
        plan = self.plan
        ring = self.ring
        submit = ring.submit
        payload = self.payload
        started, ended, is_safe = self.started, self.ended, self.is_safe
        order = list(ring.nodes)
        self.rng.shuffle(order)
        begin = time.perf_counter()
        measure_from = begin + plan.warm_s
        boundaries = [measure_from + k * plan.segment_s
                      for k in range(plan.n_segments + 1)]
        crossings = []
        late_ms: List[float] = []
        first_measured = 0
        outstanding = 0
        next_id = 0
        index = 0
        while True:
            now = time.perf_counter()
            if now >= boundaries[index]:
                outstanding -= self._drain_observer()
                self._drain_side(now)
                crossings.append((time.perf_counter(), self._everywhere()))
                if index == 0:
                    first_measured = next_id
                self._at_boundary(index == 0, index == plan.n_segments)
                index += 1
                if index > plan.n_segments:
                    break
                continue
            if due is None:
                while outstanding < OUTSTANDING:
                    started.append(time.perf_counter())
                    ended.append(0.0)
                    is_safe.append(False)
                    submit(order[next_id % N_NODES], (next_id, payload))
                    next_id += 1
                    outstanding += 1
                wait = boundaries[index] - now
            else:
                while next_id < len(due) and begin + due[next_id] <= now:
                    due_at = begin + due[next_id]
                    started.append(due_at)
                    ended.append(0.0)
                    is_safe.append(safe_flags[next_id])
                    submit(senders[next_id], (next_id, payload),
                           self.safe if safe_flags[next_id] else self.agreed)
                    if due_at >= measure_from:
                        late_ms.append((now - due_at) * 1e3)
                    next_id += 1
                    now = time.perf_counter()
                wait = boundaries[index] - now
                if next_id < len(due):
                    wait = min(wait, begin + due[next_id] - now)
            if wait > 0:
                outstanding -= self._wait(min(wait, MAX_WAIT_S))
            else:
                outstanding -= self._drain_observer()
            if now - self.side_drained >= SIDE_DRAIN_S:
                self._drain_side(now)
        last_submit = time.perf_counter()
        self._settle(next_id, last_submit + DELIVERY_DEADLINE_S)
        return self._observe(crossings, boundaries, first_measured, next_id,
                             late_ms)

    def _at_boundary(self, first: bool, last: bool) -> None:
        if self.recorders is None:
            return
        if first:
            self.counters_at.append(self._counters())
            seams.set_enabled(self.recorders, True)
        elif last:
            seams.set_enabled(self.recorders, False)
            self.counters_at.append(self._counters())

    def _settle(self, submitted: int, deadline: float) -> None:
        """After the last submit: wait for every node to deliver it all."""
        while time.perf_counter() < deadline:
            self._drain_observer()
            self._drain_side(time.perf_counter())
            if self._everywhere() >= submitted:
                return
            time.sleep(0.002)

    def _observe(self, crossings, boundaries, first_measured: int,
                 submitted: int, late_ms: List[float]) -> Observation:
        plan = self.plan
        rates = [
            (crossings[k + 1][1] - crossings[k][1])
            / (crossings[k + 1][0] - crossings[k][0])
            for k in range(plan.n_segments)
        ]
        # A closed-loop sample belongs to the segment it was delivered in,
        # an open-loop one to the segment it was due in.
        agreed_at, agreed, safe_at, safe = [], [], [], []
        for ident in range(first_measured, submitted):
            end = self.ended[ident]
            if not end:
                continue
            stamp = end if self.closed_loop else self.started[ident]
            latency = (end - self.started[ident]) * 1e3
            if self.is_safe[ident]:
                safe_at.append(stamp)
                safe.append(latency)
            else:
                agreed_at.append(stamp)
                agreed.append(latency)
        split = measure.split_by_segment
        start = boundaries[0]
        out = Observation(
            rates=rates,
            agreed_ms=split(agreed_at, agreed, start, plan.segment_s,
                            plan.n_segments),
            safe_ms=split(safe_at, safe, start, plan.segment_s,
                          plan.n_segments),
            late_ms=late_ms, logs=self.logs,
            first_measured=first_measured, submitted=submitted,
            measured_s=crossings[-1][0] - crossings[0][0],
            sample_message=self.sample_message,
        )
        if len(self.counters_at) == 2:
            before, after = self.counters_at
            out.counters = {k: after[k] - before[k] for k in after}
        return out

    # -- seams read by the traced pass only -------------------------------

    def _counters(self) -> Dict[str, float]:
        total: Dict[str, float] = {}
        for pid, node in self.ring.nodes.items():
            stats = self._read(node, "participant", "stats")
            transport = self._read(node, "transport")
            readings = [(node, "tokens_resent")]
            readings += [(stats, name) for name in (
                "tokens_handled", "duplicate_tokens", "messages_initiated",
                "retransmissions_sent", "data_received", "data_duplicates")]
            readings += [(transport, name) for name in (
                "datagrams_sent", "datagrams_received", "drops_malformed",
                "drops_oversize")]
            for owner, name in readings:
                value = self._read(owner, name) or 0
                total[name] = total.get(name, 0) + value
                if pid == 0 and name == "tokens_handled":
                    total["observer_tokens_handled"] = value
        return total

    def _read(self, owner: Any, *path: str) -> Any:
        for name in path:
            if owner is None:
                return None
            if not hasattr(owner, name):
                self.seams_missing += 1
                return None
            owner = getattr(owner, name)
        return owner


def paced_schedule(seed: int, plan: Plan):
    """Seeded Poisson arrivals over warm-up and segments; exactly half the
    messages Safe, shuffled; a seeded sender for each."""
    rng = random.Random(seed * 7919 + 1)
    due, now = [], rng.expovariate(PACED_RATE)
    while now < plan.total_s:
        due.append(now)
        now += rng.expovariate(PACED_RATE)
    safe_flags = [i % 2 == 1 for i in range(len(due))]
    rng.shuffle(safe_flags)
    senders = [rng.randrange(N_NODES) for _ in due]
    return due, senders, safe_flags


def drive(workload: str, seed: int, plan: Plan, traced: bool) -> Observation:
    """Build a ring, drive ``workload`` on it for ``plan``, stop it."""
    ring = build_ring()
    recorders, missing = seams.install(ring) if traced else (None, 0)
    closed = workload == "udp_sat"
    driver = _Driver(ring, plan, seed, closed, recorders)
    ring.start()
    try:
        if closed:
            observation = driver.run()
        else:
            observation = driver.run(*paced_schedule(seed, plan))
    finally:
        ring.stop()
    if traced:
        observation.sample_token = driver._read(
            ring.nodes[0], "participant", "last_token_sent")
        observation.seams_missing = missing + driver.seams_missing
        observation.recorders = recorders
        os.makedirs(measure.OUT_DIR, exist_ok=True)
        seams.write_spans(
            os.path.join(measure.OUT_DIR, workload + ".spans.jsonl"),
            workload, recorders)
    return observation


# -- the two passes ------------------------------------------------------------

def untraced(workload: str, seed: int, seconds: float, smoke: bool,
             selftest: bool):
    """-> (check, end-to-end metrics, info, per-segment msgs/s)."""
    observation = drive(workload, seed, plan_for(workload, seconds, smoke),
                        traced=False)
    info = {
        "agreed_samples_per_segment": [len(s) for s in observation.agreed_ms],
        "safe_samples_per_segment": [len(s) for s in observation.safe_ms],
    }
    return (observation.check(corrupt=selftest), end_to_end(observation),
            info, observation.rates)


def traced(workload: str, seed: int, seconds: float, smoke: bool,
           selftest: bool):
    """-> (check, per-layer metrics, reference msgs/s per segment, traced
    msgs/s, seams missing).  Two rings: the proxies go in before
    ``start()``, so the untraced reference needs a ring of its own."""
    plan = plan_for(workload, seconds, smoke)
    reference = drive(
        workload, seed,
        Plan(plan.warm_s, plan.segment_s, max(1, plan.n_segments // 2)),
        traced=False)
    observation = drive(workload, seed, Plan(plan.warm_s, plan.segment_s, 1),
                        traced=True)
    metrics = driver_metrics(reference)
    metrics.update(layer_metrics(observation))
    check = checks.combine([reference.check(),
                            observation.check(corrupt=selftest)])
    return (check, metrics, reference.rates, observation.rates[0],
            observation.seams_missing)


# -- metrics -------------------------------------------------------------------

def end_to_end(observation: Observation) -> Dict[str, float]:
    """The workload's end-to-end metrics except ``setup_s``/``peak_rss_mb``.

    ``udp_sat`` carries no Safe message; its ``safe_p50_ms`` mirrors
    ``agreed_p50_ms`` (see README, "Mirrored metrics").
    """
    agreed = measure.latency_percentiles(observation.agreed_ms, (0.5,))
    if any(observation.safe_ms):
        safe = measure.latency_percentiles(observation.safe_ms, (0.5,))
    else:
        safe = agreed
    return {
        "msgs_per_s": measure.median_of_segments(observation.rates),
        "agreed_p50_ms": agreed[0.5], "safe_p50_ms": safe[0.5],
    }


def driver_metrics(observation: Observation) -> Dict[str, float]:
    """The benchmark's own per-layer rows, from an untraced observation."""
    agreed = [x for segment in observation.agreed_ms for x in segment]
    safe = [x for segment in observation.safe_ms for x in segment] or agreed
    out = {
        "driver.agreed_p90_ms": measure.percentile(agreed, 0.9),
        "driver.safe_p90_ms": measure.percentile(safe, 0.9),
        "driver.agreed_p99_ms": measure.percentile(agreed, 0.99),
        "driver.safe_p99_ms": measure.percentile(safe, 0.99),
    }
    if observation.late_ms:
        out["driver.late_p99_ms"] = measure.percentile(
            observation.late_ms, 0.99)
    return out


def layer_metrics(observation: Observation) -> Dict[str, float]:
    """``core``/``wire``/``emulation`` rows from a traced observation."""
    counters = observation.counters
    out: Dict[str, float] = {}
    if not observation.recorders or not counters:
        return out
    sums = seams.totals(observation.recorders)
    calls, ns = sums["calls"], sums["ns"]
    wall_ns = observation.measured_s * N_NODES * 1e9
    messages = max(1.0, observation.rates[0] * observation.measured_s)

    def mean_us(name: str) -> float:
        return ns[name] / calls[name] / 1e3 if calls[name] else 0.0

    core_ns = sum(ns[seams.NAMES[c]] for c in seams.CORE)
    send_ns = sum(ns[seams.NAMES[c]] for c in seams.SEND)
    sends = calls["send_data"] + calls["send_data_batch"]
    send_data_ns = ns["send_data"] + ns["send_data_batch"]
    for name in seams.PARTICIPANT_SEAMS:
        out["core.%s_us" % name] = mean_us(name)
        out["core.%s_calls" % name] = calls[name]
    out["core.busy_share"] = core_ns / wall_ns
    rounds = counters["tokens_handled"] / N_NODES
    out["core.msgs_per_token_round"] = messages / rounds if rounds else 0.0
    out["core.retransmissions_per_kmsg"] = (
        1e3 * counters["retransmissions_sent"] / messages)
    out["core.duplicate_tokens_per_s"] = (
        counters["duplicate_tokens"] / observation.measured_s)
    out["emulation.send_data_us"] = send_data_ns / sends / 1e3 if sends else 0.0
    out["emulation.send_token_us"] = mean_us("send_token")
    out["emulation.poll_us"] = mean_us("poll")
    out["emulation.poll_calls_per_msg"] = calls["poll"] / messages
    out["emulation.idle_poll_share"] = (
        sums["idle_polls"] / calls["poll"] if calls["poll"] else 0.0)
    out["emulation.poll_wait_share"] = ns["poll"] / wall_ns
    out["emulation.send_share"] = send_ns / wall_ns
    out["emulation.loop_other_share"] = sums["gap_ns"] / wall_ns
    observer_tokens = counters["observer_tokens_handled"]
    out["emulation.rotation_ms"] = (
        1e3 * observation.measured_s / observer_tokens
        if observer_tokens else 0.0)
    out["emulation.datagrams_per_msg"] = counters["datagrams_sent"] / messages
    out["emulation.tokens_resent_per_s"] = (
        counters["tokens_resent"] / observation.measured_s)
    out["emulation.drops_per_kmsg"] = 1e3 * (
        counters["drops_malformed"] + counters["drops_oversize"]) / messages
    out.update(wire_metrics(observation, counters, sends,
                            calls["send_token"], wall_ns))
    return out


def wire_metrics(observation: Observation, counters: Dict[str, float],
                 data_sends: int, token_sends: int,
                 wall_ns: float) -> Dict[str, float]:
    """Standalone codec calls on this workload's own message and token."""
    from repro.wire import decode_detail, encode

    message, token = observation.sample_message, observation.sample_token
    if message is None or token is None:
        return {}

    def mean_us(fn, argument) -> float:
        start = time.perf_counter_ns()
        for _ in range(WIRE_CALLS):
            fn(argument)
        return (time.perf_counter_ns() - start) / WIRE_CALLS / 1e3

    message_blob, token_blob = encode(message), encode(token)
    out = {
        "wire.encode_us": mean_us(encode, message),
        "wire.decode_us": mean_us(decode_detail, message_blob),
        "wire.token_encode_us": mean_us(encode, token),
        "wire.token_decode_us": mean_us(decode_detail, token_blob),
        "wire.bytes_per_msg": len(message_blob),
    }
    data_decodes = counters["data_received"] + counters["data_duplicates"]
    token_decodes = max(0.0, counters["datagrams_received"] - data_decodes)
    busy_us = (
        out["wire.encode_us"] * data_sends
        + out["wire.token_encode_us"] * token_sends
        + out["wire.decode_us"] * data_decodes
        + out["wire.token_decode_us"] * token_decodes
    )
    out["wire.busy_share_est"] = busy_us * 1e3 / wall_ns
    return out
