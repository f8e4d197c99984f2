"""Store-and-forward switch with per-output-port buffering.

The switch is the piece of modern data-center hardware whose behaviour
motivated the Accelerated Ring protocol: buffering lets several
participants multicast simultaneously (the overlap the accelerated
protocol exploits), while finite per-port buffers bound how much overlap
is safe (the reason the ``Accelerated_window`` must be tuned, Section
III-C of the paper).

A multicast frame is replicated at the crossbar into every other port's
output queue; each output queue drains at line rate
(:class:`repro.net.line.TransmitLine`).  Frames are never reordered on a
single port; loss happens only on buffer overflow or via an injected
loss model.  Like the paper's switch, it forwards by address and never
opens a payload: its per-class counters read the kind the sender
declared on the frame (:class:`repro.net.frames.Traffic`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from .engine import Simulator
from .frames import Frame, Traffic
from .line import TransmitLine, push_arrival
from .links import LinkSpec
from .loss import LossModel, no_loss

class SwitchPort(TransmitLine):
    """One output port: bounded byte queue draining at line rate."""

    __slots__ = ("_loss", "drops_injected")

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        spec: LinkSpec,
        deliver: Callable[[Frame], None],
        loss: LossModel = no_loss,
    ) -> None:
        super().__init__(sim, host_id, spec, deliver, spec.port_buffer_bytes)
        self._loss = loss
        self.drops_injected = 0

    def _lose(self, frame: Frame) -> bool:
        """Injected loss: True when ``frame`` is dropped (and counted).
        Callers skip the call while the port has ``no_loss``, so a
        lossless copy pays only :meth:`_admit`."""
        if self._loss(frame):
            # An admit attempt all the same: a reader later in this
            # event still stands inside the instant (rule (a)).
            self._epoch = self.sim._event_count
            self.drops_injected += 1
            return True
        return False

    def enqueue(self, frame: Frame) -> None:
        if self._loss is not no_loss and self._lose(frame):
            return
        when = self._admit(frame.wire)
        if when is not None:
            self._launch(when, frame)

    @property
    def frames_forwarded(self) -> int:
        self._read()
        return self._frames_done

    @property
    def bytes_forwarded(self) -> int:
        self._read()
        return self._bytes_done


def _deliver_copies(delivers: List[Callable[[Frame], None]],
                    frame: Frame) -> None:
    """One multicast's copies that reach their hosts at one instant."""
    for deliver in delivers:
        deliver(frame)


class Switch:
    """The crossbar: receives ingress frames, replicates, enqueues egress.

    :attr:`class_frames` and :attr:`class_bytes` count ingress frames
    and wire bytes per :class:`Traffic` kind, as each frame declares it.
    """

    __slots__ = (
        "sim", "spec", "_ports", "_fanout", "_partition",
        "_fault_filters", "_capture", "frames_received",
        "drops_partition", "drops_fault", "class_frames", "class_bytes",
    )

    def __init__(self, sim: Simulator, spec: LinkSpec) -> None:
        self.sim = sim
        self.spec = spec
        self._ports: Dict[int, SwitchPort] = {}
        #: Per-source multicast fan-out: every *other* port, in attach
        #: order (the replication order at the crossbar).  Built lazily,
        #: invalidated on attach and on partition changes (the fan-out
        #: respects port groups).
        self._fanout: Dict[int, list] = {}
        #: host -> partition group key; None means fully connected.
        #: Hosts absent from the mapping while a partition is active are
        #: isolated (their group key is unique to them).
        self._partition: Optional[Dict[int, object]] = None
        #: Ingress fault filters (fault-injection hooks): each is a
        #: predicate on the frame; True swallows it at the crossbar
        #: before any replication.  Used by the fault-schedule layer for
        #: scheduled token drops.
        self._fault_filters: List[Callable[[Frame], bool]] = []
        #: Optional ingress observer (packet capture): sees every frame
        #: that arrives at the crossbar, before filters and replication.
        self._capture: Optional[Callable[[Frame], None]] = None
        self.frames_received = 0
        self.drops_partition = 0
        self.drops_fault = 0
        self.class_frames: Dict[str, int] = dict.fromkeys(Traffic.ALL, 0)
        self.class_bytes: Dict[str, int] = dict.fromkeys(Traffic.ALL, 0)

    def attach(
        self,
        host_id: int,
        deliver: Callable[[Frame], None],
        loss: LossModel = no_loss,
    ) -> SwitchPort:
        """Register a host.  ``deliver`` is called when a frame reaches it."""
        if host_id in self._ports:
            raise ValueError("host %d already attached" % host_id)
        port = SwitchPort(self.sim, host_id, self.spec, deliver, loss)
        self._ports[host_id] = port
        self._fanout.clear()
        return port

    def port(self, host_id: int) -> SwitchPort:
        return self._ports[host_id]

    def set_port_loss(self, host_id: int, loss: LossModel) -> None:
        """Install a loss model on one egress port.

        The public way to inject fabric loss after attachment (e.g. the
        benchmark cluster applying one shared loss model to every port).
        """
        port = self._ports.get(host_id)
        if port is None:
            raise ValueError("no port for host %r" % (host_id,))
        port._loss = loss

    @property
    def host_ids(self):
        return sorted(self._ports)

    # -- fault injection: partitions and ingress filters --------------------

    def set_partition(self, *groups: Iterable[int]) -> None:
        """Split the fabric into isolated port groups.

        Frames only flow between ports in the same group (the moral
        equivalent of unplugging an inter-switch trunk).  Attached hosts
        not listed in any group are isolated.  Frames already queued on
        an egress port have crossed the crossbar and still deliver.
        """
        mapping: Dict[int, object] = {}
        for index, group in enumerate(groups):
            for host in group:
                mapping[host] = index
        self._partition = mapping
        self._fanout.clear()

    def heal(self) -> None:
        """Remove any partition: every port reaches every other again."""
        self._partition = None
        self._fanout.clear()

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def connected(self, a: int, b: int) -> bool:
        """True when the fabric currently forwards frames from a to b."""
        if a == b:
            return True
        partition = self._partition
        if partition is None:
            return True
        # Unlisted hosts are isolated: a unique per-host key.
        group_a = partition.get(a, ("isolated", a))
        group_b = partition.get(b, ("isolated", b))
        return group_a == group_b

    def add_fault_filter(self, predicate: Callable[[Frame], bool]) -> None:
        """Install an ingress filter; True swallows the frame."""
        self._fault_filters.append(predicate)

    def remove_fault_filter(self, predicate: Callable[[Frame], bool]) -> None:
        """Remove a previously installed filter (no-op if absent)."""
        try:
            self._fault_filters.remove(predicate)
        except ValueError:
            pass

    def clear_fault_filters(self) -> None:
        """Drop every ingress filter (campaign cleanup before drain)."""
        self._fault_filters.clear()

    def set_capture(self, tap: Optional[Callable[[Frame], None]]) -> None:
        """Install (or clear) an ingress observer.

        The tap sees every frame exactly once — multicasts before
        replication — mirroring a monitor port on the physical switch.
        It must not mutate the frame; the wire layer's
        :class:`repro.wire.capture.SimCaptureTap` is the standard tap.
        """
        self._capture = tap

    def receive(self, frame: Frame) -> None:
        """Ingress: a frame has fully arrived from a host NIC."""
        self.frames_received += 1
        traffic = frame.traffic
        self.class_frames[traffic] += 1
        self.class_bytes[traffic] += frame.wire
        if self._capture is not None:
            self._capture(frame)
        self.sim.call_in(self.spec.switch_latency_s, self._forward, frame)

    def _forward(self, frame: Frame) -> None:
        if self._fault_filters:
            # Copy: a filter may detach itself when its budget runs out.
            for predicate in tuple(self._fault_filters):
                if predicate(frame):
                    self.drops_fault += 1
                    return
        if frame.dst is None:  # multicast
            src = frame.src
            fanout = self._fanout.get(src)
            if fanout is None:
                fanout = self._fanout[src] = [
                    port for host_id, port in self._ports.items()
                    if host_id != src and self.connected(src, host_id)
                ]
            # One calendar entry per run of copies due at one instant:
            # pushed one by one their ties would be consecutive, so
            # nothing could run between them anyway.  On idle ports —
            # any load the buffers absorb — that is one entry for all.
            runs: List[tuple] = []  # (instant, [deliver, ...])
            wire = frame.wire
            for port in fanout:
                # SwitchPort.enqueue's steps, minus the launch.
                if port._loss is not no_loss and port._lose(frame):
                    continue
                when = port._admit(wire)
                if when is not None:
                    if not runs or runs[-1][0] != when:
                        runs.append((when, []))
                    runs[-1][1].append(port._deliver)
            for when, delivers in runs:
                push_arrival(self.sim, self.spec.propagation_s, when,
                             _deliver_copies, (delivers, frame))
        else:
            port = self._ports.get(frame.dst)
            if port is None:
                raise ValueError("frame for unknown host %r" % (frame.dst,))
            if not self.connected(frame.src, frame.dst):
                self.drops_partition += 1
                return
            port.enqueue(frame)

    # -- diagnostics --------------------------------------------------------

    def total_drops(self) -> int:
        """Per-port drops (overflow + injected loss).

        Partition and fault-filter suppressions are counted separately
        (:attr:`drops_partition`, :attr:`drops_fault`): they model
        disconnection, not congestion loss.
        """
        return sum(p.drops_overflow + p.drops_injected for p in self._ports.values())

    def drop_report(self) -> Dict[int, Dict[str, int]]:
        return {
            host_id: {
                "overflow": port.drops_overflow,
                "injected": port.drops_injected,
                "forwarded": port.frames_forwarded,
                "max_queue_bytes": port.max_queue_bytes,
            }
            for host_id, port in self._ports.items()
        }
