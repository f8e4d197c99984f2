"""Host network interface: a transmit queue serialized at line rate.

The sending side of a host.  The protocol stack hands datagrams to the
NIC instantly (the CPU cost of the send syscall is charged by the host
model in :mod:`repro.sim.node`); the NIC clocks them onto the wire one at
a time at the link rate, which is what creates the serialization delay
that dominates 1-gigabit behaviour in the paper.  The clocking itself is
:class:`repro.net.line.TransmitLine`'s arithmetic.
"""

from __future__ import annotations

from typing import Callable

from .engine import Simulator
from .frames import Frame
from .line import TransmitLine
from .links import LinkSpec


class Nic(TransmitLine):
    """Transmit path of one host: bounded byte queue + line-rate clocking."""

    __slots__ = ()

    def __init__(
        self,
        sim: Simulator,
        host_id: int,
        spec: LinkSpec,
        deliver_to_switch: Callable[[Frame], None],
    ) -> None:
        super().__init__(sim, host_id, spec, deliver_to_switch,
                         spec.nic_queue_bytes)

    def send(self, frame: Frame) -> bool:
        """Enqueue a datagram for transmission.

        Returns False (and counts a drop) if the transmit queue is full —
        the equivalent of a qdisc overflow.  The protocol's flow control
        is what keeps this from happening in correct configurations.
        """
        when = self._admit(frame.wire)
        if when is None:
            return False
        frame.sent_at = self.sim.now
        self._launch(when, frame)
        return True

    @property
    def is_idle(self) -> bool:
        """No frame is waiting (one may still be on the wire)."""
        return not self._read()

    @property
    def frames_sent(self) -> int:
        self._read()
        return self._frames_done

    @property
    def bytes_sent(self) -> int:
        self._read()
        return self._bytes_done
