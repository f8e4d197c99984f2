"""An emulated ring of real-socket nodes, run from one loop on one thread.

Like the paper's single-threaded daemon, one loop around the N state
machines: the application's thread is the only other one that runs.
"""

from __future__ import annotations

import select
import threading
import time
from typing import Any, Dict, List, Optional, Set

from ..core import DataMessage, ProtocolConfig, Ring, Service, initial_token
from ..obs.registry import MetricsRegistry
from ..wire.capture import CaptureWriter
from .node import EmulatedNode
from .transport import SendLossRule, UdpTransport


class EmulatedRing:
    """N nodes on localhost UDP, one thread; context-manager friendly."""

    #: Longest block on idle sockets; bounds reaction time, not throughput.
    POLL_INTERVAL_S = 0.001

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
        self._stop_flag = False  # set by stop(), read once per pass
        #: The one thread that runs every node, once started.
        self.thread: Optional[threading.Thread] = None
        #: Nodes whose death was already raised (each is raised once).
        self._reported: Set[int] = set()

    def _register_metrics(self) -> None:
        """Bind every node's live counters into the unified registry."""
        metrics = self.metrics
        for pid, node in self.nodes.items():
            node.transport.register_metrics(metrics)
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
        ``.rcap`` capture of the same run.  The ring's one thread writes
        every record, so the records stamped as they are written (all
        stages but ``originated`` and ``ordered``, which carry an
        earlier instant) appear in nondecreasing time across all nodes.
        """
        from ..obs.lifecycle import emulation_tracer

        if self.tracer is not None:
            raise RuntimeError("tracer already attached")
        if self.thread is not None:
            raise RuntimeError("attach the tracer before start()")
        self.tracer = emulation_tracer(self, self.t0, label=label)
        return self.tracer

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "EmulatedRing":
        if self.thread is not None:
            raise RuntimeError("ring already started")
        self.nodes[self.ring.leader].driver.tokens.append(
            initial_token(self.ring.ring_id))
        self.thread = threading.Thread(target=self.run, name="emu-ring",
                                       daemon=True)
        self.thread.start()
        return self

    def stop(self) -> None:
        self._stop_flag = True
        if self.thread is None:
            for node in self.nodes.values():
                node.transport.close()  # no loop ran to close it
        else:
            self.thread.join(timeout=2.0)
        self._raise_dead_node()

    def run(self) -> None:
        """The loop, one pass per socket wake-up (DESIGN.md section 3.1).

        What one node raises ends the loop for all and is kept as that
        node's ``error``.
        """
        nodes = list(self.nodes.values())
        # Read now, not at construction: the stand-ins a benchmark
        # installs on a node before start() are what the loop calls.
        passes = []
        owners = {}  # socket -> (node, the transport's drain, inbox)
        for node in nodes:
            driver, participant = node.driver, node.participant
            passes.append((node, node.submissions, participant.submit,
                           driver.step, driver.tokens, driver.data,
                           participant))
            drain, inboxes = node.transport.drain, (driver.data, driver.tokens)
            for sock, inbox in zip(node.transport.sockets, inboxes):
                owners[sock] = (node, drain, inbox)
        sockets = list(owners)
        wait_for, monotonic = select.select, time.monotonic
        try:
            while not self._stop_flag:
                # Block only when no node has an input queued, and never
                # past the earliest armed resend deadline.
                wait = self.POLL_INTERVAL_S
                for node, submissions, submit, _s, tokens, data, _p in passes:
                    while submissions:
                        submit(*submissions.popleft())
                    if tokens or data:
                        wait = 0.0
                if wait:
                    now = monotonic()
                    wait = max(0.0, min([now + wait] + [
                        n.timer[0] for n in nodes if n.timer]) - now)
                for sock in wait_for(sockets, (), (), wait)[0]:
                    node, drain, inbox = owners[sock]
                    inbox.extend(drain(sock))
                # A node's batch ends where the sockets could change
                # what Section III-D reads next: the data inbox ran dry,
                # or the token has priority and none is queued.
                for node, _q, _f, step, tokens, data, participant in passes:
                    while step():
                        if not data or (participant.token_has_priority
                                        and not tokens):
                            break
                now = monotonic()
                for node in nodes:
                    timer = node.timer
                    if timer is not None and now >= timer[0]:
                        node.timer = None
                        timer[1](*timer[2])
        except Exception as exc:
            node.error = exc  # the node whose work raised; see stop()
        finally:
            for node in nodes:
                node.transport.close()

    def _raise_dead_node(self) -> None:
        """Raise, once, what a node's pass raised (``node.error``)."""
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
            # A node that raised ended the loop: do not wait it out.
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
