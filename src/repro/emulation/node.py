"""A threaded node running the sans-IO participant over real sockets.

One thread per node, mirroring the paper's single-threaded daemon: once
woken, the loop drains its two sockets in one poll and handles that batch
by the protocol's token/data priority rules (:meth:`EmulatedNode.run`),
runs each token round's steps in order (including sending the token
*before* the post-token multicasts — real acceleration over a real
network stack), and retransmits the token on a wall-clock timer.
"""

from __future__ import annotations

import queue
import threading
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
    initial_token,
)
from ..core.driver import RingDriver
from .transport import UdpTransport


class EmulatedNode(threading.Thread):
    """One participant on real UDP sockets, in its own thread.

    The loop body is :class:`repro.core.driver.RingDriver`; the node is
    its port (the transport, the delivery queue, a wall-clock timer)
    and feeds its inboxes from the sockets.
    """

    #: Longest block on idle sockets; bounds reaction time, not throughput.
    POLL_INTERVAL_S = 0.001

    #: Driver port: no CPU cost model, wall clock.
    pauses = None
    clock = staticmethod(time.monotonic)

    def __init__(
        self,
        pid: int,
        ring: Ring,
        config: ProtocolConfig,
        transport: UdpTransport,
    ) -> None:
        super().__init__(name="emu-node-%d" % pid, daemon=True)
        self.pid = pid
        self.ring = ring
        self.config = config
        self.transport = transport
        # Outgoing data datagrams carry the configuration id on the wire.
        transport.ring_id = ring.ring_id
        self.participant = Participant(pid, ring, config)
        self.driver = RingDriver(self)
        #: Hand-offs to and from the node thread, one consumer each and
        #: no Python-level lock: deque and SimpleQueue are atomic in C.
        self._submissions: "deque[Tuple[Any, Service]]" = deque()
        self.delivered: "queue.SimpleQueue[DataMessage]" = queue.SimpleQueue()
        self.deliver = self.delivered.put  # the driver port's deliver
        self._stop_flag = False  # set by stop(), read once per pass
        #: The one armed timer: (monotonic deadline, fn, args).
        self._timer: Optional[Tuple[float, Callable, tuple]] = None
        #: What killed the node thread, if anything did.
        self.error: Optional[Exception] = None

    @property
    def tokens_resent(self) -> int:
        return self.driver.tokens_resent

    # -- application API (any thread) -------------------------------------

    def submit(self, payload: Any, service: Service = Service.AGREED) -> None:
        self._submissions.append((payload, service))

    def stop(self) -> None:
        self._stop_flag = True

    def drain_delivered(self) -> List[DataMessage]:
        # One consumer: what qsize() counts is there to take.
        get = self.delivered.get_nowait
        return [get() for _ in range(self.delivered.qsize())]

    def inject_first_token(self) -> None:
        """Leader only: start the ring."""
        self.driver.tokens.append(initial_token(self.ring.ring_id))

    # -- the node loop -------------------------------------------------------

    def run(self) -> None:
        """One pass per socket wake-up: poll once, handle the batch.

        A pass ends where the sockets could change what Section III-D
        reads next: *the data inbox ran dry* (a token without priority
        waits until a fresh poll found no data) or *the token has
        priority and none is queued* (it may be in the socket).
        Submissions, the stop flag and the timer are looked at once per
        pass, which one poll's drain bounds (DESIGN.md section 3.1).
        """
        step = self.driver.step
        tokens, data = self.driver.tokens, self.driver.data
        # Read now, not at construction: the stand-ins a benchmark
        # installs on the node before start() are what the loop calls.
        poll = self.transport.poll
        submit = self.participant.submit
        priority = self.participant._priority
        submissions = self._submissions
        try:
            while not self._stop_flag:
                while submissions:
                    submit(*submissions.popleft())
                # Block only when there is nothing at all to do.
                wait = 0.0 if tokens or data else self.POLL_INTERVAL_S
                fresh_data, fresh_tokens = poll(wait)
                data.extend(fresh_data)
                tokens.extend(fresh_tokens)
                while step():
                    if not data or (priority._token_high and not tokens):
                        break
                timer = self._timer
                if timer is not None and time.monotonic() >= timer[0]:
                    self._timer = None
                    timer[1](*timer[2])
        except Exception as exc:
            self.error = exc  # EmulatedRing raises it in the caller
        finally:
            self.transport.close()

    # -- the driver's port ------------------------------------------------------

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
        self._timer = (time.monotonic() + delay_s, fn, args)
