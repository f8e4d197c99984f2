"""Spawn and drive an emulated ring of real-socket nodes."""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Set

from ..core import DataMessage, ProtocolConfig, Ring, Service
from ..obs.registry import MetricsRegistry
from ..wire.capture import CaptureWriter
from .node import EmulatedNode
from .transport import SendLossRule, UdpTransport


class EmulatedRing:
    """N threaded nodes on localhost UDP; context-manager friendly."""

    def __init__(
        self,
        n_nodes: int = 4,
        config: Optional[ProtocolConfig] = None,
        loss_rule: Optional[SendLossRule] = None,
        capture: Optional[CaptureWriter] = None,
    ) -> None:
        config = config or ProtocolConfig()
        pids = list(range(n_nodes))
        self.ring = Ring.of(pids)
        transports = {pid: UdpTransport(pid) for pid in pids}
        port_map = {pid: t.ports for pid, t in transports.items()}
        capture_t0 = time.monotonic()
        for transport in transports.values():
            transport.set_peers(port_map)
            if loss_rule is not None:
                transport.set_loss_rule(loss_rule)
            if capture is not None:
                # One shared writer, one shared epoch: records from all
                # nodes interleave on a common send-side clock.
                transport.set_capture(capture, capture_t0)
        self.nodes: Dict[int, EmulatedNode] = {
            pid: EmulatedNode(pid, self.ring, config, transports[pid])
            for pid in pids
        }
        #: Shared monotonic epoch for captures and traces.
        self.t0 = capture_t0
        self.metrics = MetricsRegistry()
        self._register_metrics()
        #: Lifecycle tracer, if attached (see :meth:`attach_tracer`).
        self.tracer = None
        self._started = False
        #: Nodes whose death was already raised (each is raised once).
        self._reported: Set[int] = set()

    def _register_metrics(self) -> None:
        """Bind every node's live counters into the unified registry."""
        metrics = self.metrics
        for pid, node in self.nodes.items():
            node.transport.register_metrics(metrics, node=pid)
            metrics.bind("emulation.node.tokens_resent", node,
                         "tokens_resent", node=pid)
            stats = node.participant.stats
            for name in (
                "tokens_handled", "messages_initiated", "data_received",
                "delivered", "retransmissions_sent",
            ):
                metrics.bind("core.participant." + name, stats, name,
                             node=pid)

    def attach_tracer(self, label: str = ""):
        """Attach a lifecycle tracer (wall clock); call before start().

        Timestamps share the capture epoch, so a trace lines up with an
        ``.rcap`` capture of the same run.  Node threads stamp records
        concurrently; each stamp is one GIL-atomic bytearray extend, so
        the stream is safe — just not globally time-sorted across nodes.
        """
        from ..obs.lifecycle import emulation_tracer

        if self.tracer is not None:
            raise RuntimeError("tracer already attached")
        if self._started:
            raise RuntimeError("attach the tracer before start()")
        self.tracer = emulation_tracer(self, self.t0, label=label)
        return self.tracer

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EmulatedRing":
        if self._started:
            raise RuntimeError("ring already started")
        self._started = True
        self.nodes[self.ring.leader].inject_first_token()
        for node in self.nodes.values():
            node.start()
        return self

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()
        for node in self.nodes.values():
            if node.ident is None:
                node.transport.close()  # no thread ran to close it
            else:
                node.join(timeout=2.0)
        self._raise_dead_node()

    def _raise_dead_node(self) -> None:
        """Raise, once, what killed a node thread (``node.error``)."""
        for pid, node in self.nodes.items():
            if node.error is not None and pid not in self._reported:
                self._reported.add(pid)
                raise RuntimeError(
                    "node %d died: %r" % (pid, node.error)) from node.error

    def __enter__(self) -> "EmulatedRing":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- workload --------------------------------------------------------------

    def submit(self, pid: int, payload: Any,
               service: Service = Service.AGREED) -> None:
        self.nodes[pid].submit(payload, service)

    def collect_deliveries(
        self,
        expected_per_node: int,
        timeout_s: float = 10.0,
    ) -> Dict[int, List[DataMessage]]:
        """Wait until every node delivered ``expected_per_node`` messages."""
        collected: Dict[int, List[DataMessage]] = {
            pid: [] for pid in self.nodes
        }
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            progress = False
            for pid, node in self.nodes.items():
                fresh = node.drain_delivered()
                if fresh:
                    collected[pid].extend(fresh)
                    progress = True
            if all(len(v) >= expected_per_node for v in collected.values()):
                return collected
            # A dead node took the token with it: do not wait it out.
            self._raise_dead_node()
            if not progress:
                time.sleep(0.002)
        counts = {pid: len(v) for pid, v in collected.items()}
        raise TimeoutError(
            "nodes did not deliver %d messages in %.1fs: %r"
            % (expected_per_node, timeout_s, counts)
        )

    # -- diagnostics -----------------------------------------------------------

    def drop_report(self) -> Dict[int, Dict[str, int]]:
        """Per-node receive-side drop counters from the wire boundary."""
        return {
            pid: {
                "malformed": node.transport.drops_malformed,
                "oversize": node.transport.drops_oversize,
                "received": node.transport.datagrams_received,
            }
            for pid, node in self.nodes.items()
        }
