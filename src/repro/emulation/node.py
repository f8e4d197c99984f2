"""One participant on real sockets: the driver's port, run by its ring.

A node has no thread of its own: :class:`repro.emulation.cluster
.EmulatedRing` runs every node from one loop, which feeds the node's
inboxes from its sockets, handles each batch by the token/data priority
rule (the token leaves *before* the post-token multicasts — real
acceleration over a real network stack) and fires its wall-clock timer.
"""

from __future__ import annotations

import queue
import time
from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from ..core import (
    DataMessage,
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    Token,
)
from ..core.driver import RingDriver
from .transport import UdpTransport


class EmulatedNode:
    """One participant on real UDP sockets, stepped by its ring's loop.

    The loop body is :class:`repro.core.driver.RingDriver`; the node is
    its port (the transport, the delivery queue, a wall-clock timer).
    """

    #: Driver port: no CPU cost model.
    pauses = None

    def __init__(
        self,
        pid: int,
        ring: Ring,
        config: ProtocolConfig,
        transport: UdpTransport,
        t0: float,
    ) -> None:
        self.pid = pid
        #: The ring's monotonic origin, shared with its captures.
        self.t0 = t0
        self.ring = ring
        self.config = config
        self.transport = transport
        # Outgoing data datagrams carry the configuration id on the wire.
        transport.ring_id = ring.ring_id
        self.participant = Participant(pid, ring, config)
        self.driver = RingDriver(self)
        #: Hand-offs to and from the ring's thread, one consumer each
        #: and no Python-level lock: deque and SimpleQueue are atomic in C.
        self.submissions: "deque[Tuple[Any, Service]]" = deque()
        self.delivered: "queue.SimpleQueue[DataMessage]" = queue.SimpleQueue()
        self.deliver = self.delivered.put  # the driver port's deliver
        #: The one armed timer: (monotonic deadline, fn, args).
        self.timer: Optional[Tuple[float, Callable, tuple]] = None
        #: What this node's pass raised, ending the ring's loop.
        self.error: Optional[Exception] = None

    @property
    def tokens_resent(self) -> int:
        return self.driver.tokens_resent

    # -- application API (any thread) -------------------------------------

    def submit(self, payload: Any, service: Service = Service.AGREED) -> None:
        self.submissions.append((payload, service))

    def drain_delivered(self) -> List[DataMessage]:
        # One consumer: what qsize() counts is there to take.
        get = self.delivered.get_nowait
        return [get() for _ in range(self.delivered.qsize())]

    # -- the driver's port ------------------------------------------------------

    def clock(self) -> float:
        """Wall-clock seconds since the ring's ``t0`` (read only with a
        tracer attached)."""
        return time.monotonic() - self.t0

    def multicast(self, message: DataMessage) -> None:
        self.transport.send_data(message)

    def multicast_batch(self, messages, _datagram_bytes: int) -> None:
        # The transport regroups by encoded size under the same cap.
        self.transport.send_data_batch(
            messages, self.config.jumbo_datagram_bytes
        )

    def send_token(self, token: Token, dst: int) -> None:
        if dst == self.pid:
            self.driver.tokens.append(token)
        else:
            self.transport.send_token(token, dst)

    def set_timer(self, delay_s: float, fn: Callable, *args: Any) -> None:
        # A newer token send supersedes the armed resend (which would
        # find ``last_token_sent`` changed and do nothing anyway).
        self.timer = (time.monotonic() + delay_s, fn, args)
