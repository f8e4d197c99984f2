"""The one daemon loop around the sans-IO participant.

The paper's daemon is a single-threaded loop around one state machine:
read the token or the data socket by the Section III-D priority rule,
run a token handling's steps *in order*, resend the token on a timer.
This module is that loop, once.  The loopback harness, the simulator
and the UDP emulation all drive their participants through
:class:`RingDriver` and supply only a :class:`DriverPort` — how a
datagram, a token, a delivery and a timer are realised there (DESIGN.md
section 3.1).

A substrate that charges CPU time exposes ``port.pauses``; the loop
then *yields* the matching pause before each effect, which makes it a
generator the simulation kernel runs as a process.  Elsewhere
``pauses`` is ``None``, no effect is ever preceded by a yield, and
:meth:`RingDriver.step` runs one input to completion.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Iterable, List, Optional, Protocol

from .coalesce import (
    FRAME_HEADER_BYTES,
    JUMBO_COUNT_BYTES,
    JUMBO_ENTRY_BYTES,
    JumboDatagram,
)
from .messages import DataMessage, Token

#: Token retransmission timeout (each port's timer runs on its clock).
TOKEN_RETRANSMIT_TIMEOUT_S = 0.005
#: How many token retransmissions before the driver stops resending and
#: leaves token loss to the membership layer.
TOKEN_RETRANSMIT_LIMIT = 8


class DriverPort(Protocol):
    """What a substrate supplies to :class:`RingDriver`."""

    #: Read each time the loop starts, so whatever the substrate's
    #: attribute holds then (an instrumented stand-in, say) is called.
    participant: Any
    #: ``None``, or the CPU charges to yield before each effect:
    #: ``recv_token``/``send_token`` (one pause each) and
    #: ``recv_data``/``send_data``/``deliver`` (payload bytes -> pause).
    pauses: Any
    #: With pauses only: what to yield while both inboxes are empty, and
    #: ``unwrap(item)`` — the payload of a dequeued data item (there the
    #: data inbox holds the substrate's own datagram envelopes).
    idle: Any
    unwrap: Callable[[Any], Any]
    #: The substrate's clock; only read with a tracer attached.
    clock: Callable[[], float]

    def multicast(self, message: DataMessage) -> None: ...
    def multicast_batch(self, messages: List[DataMessage],
                        datagram_bytes: int) -> None: ...
    def send_token(self, token: Token, dst: int) -> None: ...
    def deliver(self, message: DataMessage) -> None: ...
    def set_timer(self, delay_s: float, fn: Callable, *args: Any) -> None:
        """Arm the port's one resend deadline: ``fn(*args)`` after
        ``delay_s``.  A newer call supersedes the armed one — the loop
        arms it per token send, and a superseded ``resend_token`` would
        find ``last_token_sent`` changed and do nothing anyway."""


class Inbox:
    """The token socket and the data socket of one ring member."""

    __slots__ = ("tokens", "data")

    def __init__(self) -> None:
        self.tokens: Deque[Any] = deque()
        self.data: Deque[Any] = deque()

    def pick(self, token_has_priority: bool) -> Optional[Deque[Any]]:
        """The queue to read next (Section III-D), ``None`` when idle.

        A token is always read when no data is pending, so neither
        priority method can deadlock.
        """
        tokens = self.tokens
        if tokens and (token_has_priority or not self.data):
            return tokens
        return self.data or None

    def clear(self) -> None:
        self.tokens.clear()
        self.data.clear()


class RingDriver(Inbox):
    """One participant's daemon loop over a :class:`DriverPort`."""

    __slots__ = ("port", "header_bytes", "tokens_resent", "_stepper",
                 "trace_send", "trace_delivery", "trace_coalesce")

    def __init__(self, port: DriverPort, header_bytes: int = 0) -> None:
        super().__init__()
        self.port = port
        #: A plain data datagram's header in the substrate's size model
        #: (0: none); coalesced datagrams are sized from it in :meth:`run`.
        self.header_bytes = header_bytes
        self.tokens_resent = 0
        self._stepper = None
        self.set_trace_hooks()

    def set_trace_hooks(
        self,
        send: Optional[Callable] = None,
        delivery: Optional[Callable] = None,
        coalesce: Optional[Callable] = None,
    ) -> None:
        """Install lifecycle-trace hooks (repro.obs.lifecycle).

        ``send(message, retransmission, coalesced)`` fires when the
        substrate accepted a data datagram; ``delivery(message,
        t_ordered, t_delivered)`` once per delivered message —
        ``t_ordered`` the instant the participant released the message
        (in the ``delivered`` run of ``on_token``'s round, or in
        ``on_data``'s list), ``t_delivered`` the instant the delivery
        (and, where modelled, its CPU charge) finished, both on the
        port's clock;
        ``coalesce(messages)`` when a batch of two or more forms.  With
        no tracer the hooks are ``None`` and the send/deliver paths pay
        one ``is not None`` test each, nothing else.
        """
        self.trace_send = send
        self.trace_delivery = delivery
        self.trace_coalesce = coalesce

    def step(self) -> bool:
        """Handle one pending input to completion; False when idle.

        For ports without pauses.  One stepping :meth:`run` is kept
        across calls (its set-up costs as much as a small input), begun
        at the first input so it sees the port as it is by then.
        """
        if not self.tokens and not self.data:
            return False
        stepper = self._stepper
        if stepper is None:
            stepper = self._stepper = self.run(stepping=True)
        try:
            next(stepper)
        except BaseException:
            self._stepper = None  # spent by the raise: begin afresh
            raise
        return True

    def run(self, stepping: bool = False):
        """The loop, as a generator.

        Yields what ``port.pauses`` and ``port.idle`` hold — a pause
        always *before* the effect it pays for, so a frame reaches the
        NIC and a message reaches the application when its CPU charge
        ends, not when it starts — and, when ``stepping``, ``None``
        after each input (resume it only with an input pending).
        """
        port = self.port
        participant = port.participant
        on_token = participant.on_token
        on_data = participant.on_data
        config = participant.config
        timeout = TOKEN_RETRANSMIT_TIMEOUT_S
        # Consecutive sends coalesce into datagrams of at most ``cap``
        # bytes.  No cap is a cap nothing fits under: every packet then
        # flushes alone, through the same code as a coalesced batch.
        cap = config.jumbo_datagram_bytes or 0
        # Sized as the codec frames it: one frame header and the count,
        # then per packet an entry and the rest of the packet's own
        # header.  A port with no header model (0) sizes payloads alone.
        frame_header = min(self.header_bytes, FRAME_HEADER_BYTES)
        base = frame_header + JUMBO_COUNT_BYTES
        per_packet = JUMBO_ENTRY_BYTES + self.header_bytes - frame_header
        pauses = port.pauses
        if pauses is not None:
            unwrap = port.unwrap
            recv_pauses = pauses.recv_data
            send_pauses = pauses.send_data
            deliver_pauses = pauses.deliver
        deliver = port.deliver

        def multicast(messages, retransmitted):
            """Multicast ``messages`` in order, in datagrams of at most
            ``cap`` bytes; the first ``retransmitted`` of them answer
            retransmission requests.  The last datagram leaves before
            this returns: coalescing never spans a step of the round, so
            the token keeps its place and no batching delay is added."""
            count = len(messages)
            start = 0
            size = base
            for end in range(count + 1):
                if end < count:
                    entry = per_packet + messages[end].payload_size
                    if end == start or size + entry <= cap:
                        size += entry
                        continue
                # messages[start:end] is full, or the last datagram.
                if pauses is not None:
                    # One send syscall for the whole datagram.
                    yield send_pauses[
                        size - base - per_packet * (end - start)]
                coalesced = end - start > 1
                if coalesced:
                    batch = messages[start:end]
                    port.multicast_batch(batch, size)
                else:
                    # A lone packet travels plain: same bytes, same cost
                    # as without coalescing.
                    port.multicast(messages[start])
                trace_send = self.trace_send
                if trace_send is not None:
                    if coalesced and self.trace_coalesce is not None:
                        self.trace_coalesce(batch)
                    for index in range(start, end):
                        trace_send(messages[index], index < retransmitted,
                                   coalesced)
                start = end
                size = base + entry

        tokens = self.tokens
        data = self.data
        while True:
            # Inbox.pick's rule, inlined: this loop runs once per frame.
            if tokens and (participant.token_has_priority or not data):
                item = tokens.popleft()
                if pauses is not None:
                    yield pauses.recv_token
                handled = on_token(item)
                # ``None``: a duplicate, nothing to do.
                if handled is not None:
                    # Hooks are read as they are needed, not captured
                    # above: a tracer may attach after the loop was
                    # spawned.
                    trace_delivery = self.trace_delivery
                    if trace_delivery is not None:
                        # The participant returned the round now: its
                        # delivered run was ordered (released) at this
                        # instant, before any charge below shifts the
                        # clock.
                        t_ordered = port.clock()
                    # The steps of Section III-A, in order: the token
                    # goes out after the pre-token sends and before the
                    # post-token ones (that order IS the acceleration).
                    answers = handled.retransmitted
                    if answers:
                        yield from multicast(answers + handled.pre,
                                             len(answers))
                    elif handled.pre:
                        yield from multicast(handled.pre, 0)
                    if pauses is not None:
                        yield pauses.send_token
                    token = handled.token
                    port.send_token(token, handled.dst)
                    port.set_timer(timeout, self.resend_token,
                                   token, handled.dst, 0)
                    if handled.post:
                        yield from multicast(handled.post, 0)
                    for message in handled.delivered:
                        if pauses is not None:
                            yield deliver_pauses[message.payload_size]
                        deliver(message)
                        if trace_delivery is not None:
                            trace_delivery(message, t_ordered, port.clock())
            elif data:
                item = data.popleft()
                if pauses is not None:
                    item = unwrap(item)
                    # One receive syscall however many packets the
                    # datagram coalesces — what jumbo framing buys here.
                    yield recv_pauses[item.payload_size]
                # ``on_data`` returns the messages it released: delivery
                # is the sole effect of receiving data, so there is
                # never a send to make.
                if type(item) is JumboDatagram:
                    released: Iterable = map(on_data, item.messages)
                else:
                    released = (on_data(item),)
                for messages in released:
                    if not messages:
                        continue
                    trace_delivery = self.trace_delivery
                    if trace_delivery is not None:
                        # Released now, as a token's delivered run is.
                        t_ordered = port.clock()
                    for message in messages:
                        if pauses is not None:
                            yield deliver_pauses[message.payload_size]
                        deliver(message)
                        if trace_delivery is not None:
                            trace_delivery(message, t_ordered, port.clock())
            else:
                yield port.idle
                continue
            if stepping:
                yield

    def resend_token(self, token: Token, dst: int, attempt: int) -> bool:
        """The retransmission timer armed for ``token`` fired: resend it
        to ``dst`` and re-arm unless the ring demonstrably moved on;
        True if resent."""
        port = self.port
        participant = port.participant
        if participant.last_token_sent is not token:
            return False  # we have handled a newer token since
        if participant.progress_since_token_send():
            return False
        if attempt >= TOKEN_RETRANSMIT_LIMIT:
            return False  # membership's problem now (token loss declared)
        self.tokens_resent += 1
        port.send_token(token, dst)
        port.set_timer(TOKEN_RETRANSMIT_TIMEOUT_S,
                       self.resend_token, token, dst, attempt + 1)
        return True
