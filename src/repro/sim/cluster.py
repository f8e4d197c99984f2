"""A full simulated deployment: N hosts, one switch, rate-driven clients.

This is the benchmark substrate: it reproduces the paper's setup of
eight servers, each running one daemon, one sending client injecting at
a fixed rate, and one receiving client receiving everything.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..core import ProtocolConfig, Ring, Service, initial_token
from ..net import LinkSpec, Simulator, Switch, Timeout, register_fabric_metrics
from ..net.loss import LossModel, derive_port_loss, no_loss
from ..obs.registry import MetricsRegistry
from .latency import LatencyRecorder, LatencySummary
from .node import SimNode
from .profiles import CostProfile


@dataclass
class SimResult:
    """Everything a benchmark needs from one simulated run."""

    protocol: str
    profile: str
    link: str
    payload_size: int
    service: Service
    offered_bps: float
    achieved_bps: float
    latency: LatencySummary
    #: True when the system could not sustain the offered load.
    saturated: bool
    duration_s: float
    switch_drops: int
    nic_drops: int
    socket_drops: int
    tokens_resent: int
    retransmissions: int
    end_backlog: int
    rounds_per_s: float

    @property
    def achieved_mbps(self) -> float:
        return self.achieved_bps / 1e6

    @property
    def latency_us(self) -> float:
        return self.latency.mean_s * 1e6


#: Relative spread of an injector's inter-submit interval.
INJECT_JITTER = 0.05


def spawn_injectors(
    sim: Simulator,
    submits: Sequence[Callable[[], None]],
    total_rate_bps: float,
    payload_size: int,
    duration_s: float,
    seed: int,
) -> None:
    """Fixed-rate senders: each ``submit`` is called at an equal share.

    ``total_rate_bps`` counts clean payload bits across all senders,
    matching how the paper reports throughput levels.  Sender ``i``
    starts ``i / n`` of an interval in and then submits every interval,
    jittered by ``±INJECT_JITTER / 2`` from one generator seeded with
    ``seed``, until ``duration_s``.  Both :class:`SimCluster` and the
    Section V comparators (:mod:`repro.baselines`) load their hosts
    through it.
    """
    n = len(submits)
    per_node_rate = total_rate_bps / n / (payload_size * 8.0)
    if per_node_rate <= 0:
        return
    interval = 1.0 / per_node_rate
    rng = random.Random(seed)

    def injector(submit: Callable[[], None], start_offset: float):
        yield Timeout(start_offset)
        while sim.now < duration_s:
            submit()
            yield Timeout(
                interval * (1.0 + INJECT_JITTER * (rng.random() - 0.5)))

    for index, submit in enumerate(submits):
        sim.spawn(injector(submit, interval * index / n), "inject%d" % index)


class SimCluster:
    """Build and run one configuration of the simulated testbed."""

    def __init__(
        self,
        n_nodes: int,
        spec: LinkSpec,
        profile: CostProfile,
        config: ProtocolConfig,
        payload_size: int = 1350,
        service: Service = Service.AGREED,
        loss: Optional[LossModel] = None,
        seed: int = 0,
        deliver_callback: Optional[Callable[[int, object], None]] = None,
        ring_id: int = 0,
    ) -> None:
        self.sim = Simulator()
        self.spec = spec
        self.profile = profile
        self.config = config
        self.payload_size = payload_size
        self.service = service
        self.seed = seed
        self.ring = Ring.of(range(n_nodes), ring_id=ring_id)
        self.switch = Switch(self.sim, spec)
        self.recorder = LatencyRecorder()
        self._loss = loss or no_loss
        self.nodes: Dict[int, SimNode] = {}
        for pid in self.ring:
            # Injected loss applies on the shared fabric: wrap each
            # port's delivery via the switch loss hook.  The delivery
            # hook (multiring's merge feed, or any other observer)
            # fires once per delivered DataMessage per node.
            self.nodes[pid] = SimNode(
                self.sim, pid, self.ring, config, profile, spec,
                self.switch, self.recorder,
                deliver_callback=deliver_callback,
            )
        if loss is not None:
            for pid in self.ring:
                self.switch.set_port_loss(pid, derive_port_loss(loss, pid))
        self.metrics = MetricsRegistry()
        self._register_metrics()
        #: Lifecycle tracer, if attached (see :meth:`attach_tracer`).
        self.tracer = None
        self._injectors_started = False

    def _register_metrics(self) -> None:
        """Expose every cluster counter through the unified registry.

        All bound views over the live attributes the nodes already
        increment — registering costs nothing on the hot paths.
        """
        metrics = self.metrics
        for pid, node in self.nodes.items():
            stats = node.participant.stats
            for name in (
                "tokens_handled", "duplicate_tokens", "messages_initiated",
                "messages_sent_pre_token", "messages_sent_post_token",
                "retransmissions_sent", "retransmissions_requested",
                "data_received", "data_duplicates", "delivered", "discarded",
            ):
                metrics.bind("core.participant." + name, stats, name, node=pid)
            metrics.bind("sim.node.socket_drops", node, "socket_drops",
                         node=pid)
            metrics.bind("sim.node.tokens_resent", node, "tokens_resent",
                         node=pid)
            metrics.bind_fn(
                "core.participant.backlog",
                (lambda participant=node.participant: participant.backlog),
                node=pid,
            )
        register_fabric_metrics(
            metrics, self.switch, [n.nic for n in self.nodes.values()])

    # -- capture ---------------------------------------------------------------

    def attach_capture(self, writer) -> None:
        """Record every switch-ingress frame into an ``.rcap`` writer.

        Accepts a :class:`repro.wire.capture.CaptureWriter`; the tap
        encodes each frame's payload with the real wire codec, so a sim
        capture is byte-comparable with an emulation capture.
        """
        from ..wire.capture import SimCaptureTap

        self.switch.set_capture(SimCaptureTap(self.sim, writer))

    def attach_tracer(self, label: str = ""):
        """Attach a lifecycle tracer (sim clock); call before :meth:`run`.

        Returns the :class:`repro.obs.lifecycle.LifecycleTracer`; after
        the run, write it out with ``tracer.write_binary(path)`` and analyze
        with ``python -m repro.cli trace-analyze``.
        """
        from ..obs.lifecycle import LifecycleTracer
        from ..wire.capture import WORLD_SIM

        if self.tracer is not None:
            raise RuntimeError("tracer already attached")
        self.tracer = LifecycleTracer(self.nodes, WORLD_SIM, label)
        return self.tracer

    # -- workload ------------------------------------------------------------

    def inject_at_rate(self, total_rate_bps: float, duration_s: float) -> None:
        """Fixed-rate senders: every node injects an equal share of
        ``total_rate_bps`` (:func:`spawn_injectors`, seeded with the
        cluster's seed)."""
        if self._injectors_started:
            raise RuntimeError("injectors already started")
        self._injectors_started = True
        spawn_injectors(
            self.sim,
            [functools.partial(self.nodes[pid].submit, None, self.service,
                               self.payload_size) for pid in self.ring],
            total_rate_bps, self.payload_size, duration_s, self.seed,
        )

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        duration_s: float,
        warmup_s: float,
        offered_bps: float = 0.0,
        max_events: int = 200_000_000,
    ) -> SimResult:
        """Start the ring, run for ``duration_s`` simulated seconds."""
        self.recorder.warmup_until_s = warmup_s
        leader = self.nodes[self.ring.leader]
        leader.start_with_token(initial_token(self.ring.ring_id))
        self.sim.run(until=duration_s, max_events=max_events)

        measure_window = duration_s - warmup_s
        achieved = self.recorder.min_throughput_bps(measure_window)
        end_backlog = sum(node.backlog for node in self.nodes.values())
        # Saturated: a meaningful backlog remains relative to what one
        # second of offered load represents.
        offered_msgs_per_s = offered_bps / (self.payload_size * 8.0)
        saturated = (
            offered_bps > 0
            and end_backlog > max(40, 0.05 * offered_msgs_per_s * measure_window)
        )
        total_retrans = sum(
            node.participant.stats.retransmissions_sent
            for node in self.nodes.values()
        )
        rounds = leader.participant.stats.tokens_handled
        return SimResult(
            protocol="accelerated" if self.config.is_accelerated else "original",
            profile=self.profile.name,
            link=self.spec.name,
            payload_size=self.payload_size,
            service=self.service,
            offered_bps=offered_bps,
            achieved_bps=achieved,
            latency=self.recorder.summary(self.service),
            saturated=saturated,
            duration_s=duration_s,
            switch_drops=self.switch.total_drops(),
            nic_drops=sum(n.nic.drops_overflow for n in self.nodes.values()),
            socket_drops=sum(n.socket_drops for n in self.nodes.values()),
            tokens_resent=sum(n.tokens_resent for n in self.nodes.values()),
            retransmissions=total_retrans,
            end_backlog=end_backlog,
            rounds_per_s=rounds / duration_s if duration_s > 0 else 0.0,
        )


def run_point(
    protocol_config: ProtocolConfig,
    profile: CostProfile,
    spec: LinkSpec,
    offered_bps: float,
    n_nodes: int = 8,
    payload_size: int = 1350,
    service: Service = Service.AGREED,
    duration_s: float = 0.25,
    warmup_s: float = 0.08,
    seed: int = 0,
    loss: Optional[LossModel] = None,
) -> SimResult:
    """One (throughput level, configuration) measurement — the unit every
    figure in the paper is built from."""
    cluster = SimCluster(
        n_nodes, spec, profile, protocol_config,
        payload_size=payload_size, service=service, seed=seed, loss=loss,
    )
    cluster.inject_at_rate(offered_bps, duration_s)
    return cluster.run(duration_s, warmup_s, offered_bps=offered_bps)
