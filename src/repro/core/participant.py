"""The Accelerated Ring participant: the paper's core contribution.

A :class:`Participant` is a sans-IO state machine.  Drivers feed it the
token (:meth:`Participant.on_token`), which returns one
:class:`TokenRound` whose fields are the steps below, for the driver to
run in that order, and data messages (:meth:`Participant.on_data`),
which return the messages they released for delivery.

Token handling follows Section III-A of the paper exactly:

1. **Pre-token multicasting** — answer every answerable retransmission
   request, then initiate new messages under flow control, *enqueuing*
   them and multicasting only the overflow beyond the
   ``Accelerated_window`` (so at most ``Accelerated_window`` messages
   remain to send after the token).
2. **Updating and sending the token** — ``seq`` reflects every message of
   the round (sent or not); ``aru`` follows the lower/raise/track rules;
   ``fcc`` swaps our last-round contribution for this round's; ``rtr``
   drops answered requests and adds our gaps, bounded by the seq of the
   token received in the *previous* round.
3. **Post-token multicasting** — flush the queue.
4. **Delivering and discarding** — Agreed messages up to the frontier,
   Safe messages up to min(aru sent this round, aru sent last round),
   then stable garbage collection.

**Flow control (Section III-A-1).**  The number of new messages a
participant may initiate in a round is

    min( backlog,
         Personal_window,
         Global_window - received_token.fcc - num_retransmissions,
         Global_aru + Max_seq_gap - received_token.seq )

clamped at zero.  ``Global_aru`` — the highest seq known received by all
participants — is the aru carried on the token as received.

**Retransmission requests (Section III-A-2).**  The accelerated
protocol's key subtlety: the ``seq`` field of a received token may cover
messages that *have not been sent yet* (the predecessor's post-token
phase is still in flight).  Requesting those would trigger useless
retransmissions, so a participant only requests gaps up through the
``seq`` of the token it received in the **previous** round — by the time
the token comes around again, every message covered by the previous
token has certainly been multicast.  With ``Accelerated_window = 0``
nothing follows the token, so the original Ring's horizon applies: gaps
through the received token's own seq.  A request for a stable (discarded)
message is a stale duplicate, since everyone holds it, and is dropped.

**Token/data priority (Section III-C).**  A participant that has both a
pending token and pending data messages must decide which to process
first.  Data messages always get high priority immediately after a
token handling; the question is when to raise the token's priority
again:

* **Method 1 (aggressive)** — as soon as we process any data message our
  ring predecessor sent in the next token round.  The token is processed
  at the earliest moment it cannot be "too early" by a full round.
* **Method 2 (conservative)** — only when we process a data message the
  predecessor sent *after* passing the token (its post-token phase).
  The token is then processed at its exact position in the message
  stream.  With ``accelerated_window == 0`` the predecessor never sends
  after the token, so the token is processed only when no data is
  pending — the original Ring protocol.

Priority only matters when both kinds of input are pending: a token is
always processed when no data message is available, so neither method
can deadlock.  Drivers read :attr:`Participant.token_has_priority`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, List, Optional, Tuple

from .config import PriorityMethod, ProtocolConfig, Service
from .errors import TokenError
from .messages import DataMessage, Token
from .packing import pack_next
from .ring import Ring
from .window import ReceiveWindow

#: Bound on how far the token's ``seq`` may lead its global aru.
MAX_SEQ_GAP = 10_000
#: Payload budget of one packed protocol packet (1500-byte MTU minus
#: protocol headers), with ``pack_messages`` on.
MAX_PACKET_PAYLOAD = 1350


@dataclass(slots=True)
class _PendingMessage:
    """An application message waiting for the token."""

    payload: Any
    service: Service
    payload_size: int
    submitted_at: Optional[float]


@dataclass(slots=True)
class TokenRound:
    """One regular-token handling, as the steps of Section III-A.

    A driver runs the fields in this order, and the token's place
    between ``pre`` and ``post`` is the Accelerated Ring protocol:

    1. multicast ``retransmitted`` (answers to the token's ``rtr``), then
       ``pre`` (new messages beyond the accelerated window);
    2. send ``token`` to ``dst``, the ring successor;
    3. multicast ``post`` (the accelerated queue);
    4. deliver ``delivered``, the released run in total order.

    Stable messages are garbage-collected inside the participant; no
    field asks the driver for it.  The lists are the participant's own,
    built once per handling, and nothing may mutate them afterwards.
    """

    retransmitted: List[DataMessage]
    pre: List[DataMessage]
    token: Token
    dst: int
    post: List[DataMessage]
    delivered: List[DataMessage]


@dataclass(slots=True)
class ParticipantStats:
    """Counters exposed for tests and benchmarks."""

    tokens_handled: int = 0
    duplicate_tokens: int = 0
    messages_initiated: int = 0
    messages_sent_pre_token: int = 0
    messages_sent_post_token: int = 0
    retransmissions_sent: int = 0
    retransmissions_requested: int = 0
    data_received: int = 0
    data_duplicates: int = 0
    delivered: int = 0
    discarded: int = 0


class Participant:
    """One member of an established ring running the ordering protocol."""

    __slots__ = (
        "pid", "ring", "config", "stats", "successor", "token_has_priority",
        "_window", "_pending", "_aggressive", "_ring_size", "_predecessor",
        "_trigger_hop", "_rtr_horizon",
        "_accelerated_window", "_last_received_hop", "_sent_last_round",
        "_last_token_sent", "_max_round_seen",
        "_on_sent", "_on_received", "_on_token", "_on_retransmitted",
    )

    def __init__(
        self,
        pid: int,
        ring: Ring,
        config: Optional[ProtocolConfig] = None,
    ) -> None:
        self.pid = pid
        self.config = config or ProtocolConfig()
        self.stats = ParticipantStats()
        self._pending: Deque[_PendingMessage] = deque()
        self._aggressive = (
            self.config.priority_method is PriorityMethod.AGGRESSIVE)
        self.rebind_ring(ring)
        # Observers per stage (see observe), in attach order.  An empty
        # tuple when nothing watches: each stage then costs one
        # truthiness test.
        self._on_sent: Tuple[Callable, ...] = ()
        self._on_received: Tuple[Callable, ...] = ()
        self._on_token: Tuple[Callable, ...] = ()
        self._on_retransmitted: Tuple[Callable, ...] = ()

    def observe(
        self,
        sent: Optional[Callable] = None,
        received: Optional[Callable] = None,
        token: Optional[Callable] = None,
        retransmitted: Optional[Callable] = None,
    ) -> None:
        """Attach observers to the participant's stages.

        The one way to watch a participant: the window tuner, the round
        tracer and the lifecycle tracer all attach here.  Each stage
        calls its observers synchronously, in attach order, and an
        observer's exception propagates out of the handler.

        * ``sent(message)`` — once per initiated message, as it enters
          our window;
        * ``received(message)`` — once per NEW data message accepted
          into the window (duplicates are skipped);
        * ``token(received, sent, new_messages, retransmissions)`` —
          once per regular-token handling, after step 4, with the
          token handled, the token sent, the flow-control budget and
          the number of retransmissions answered;
        * ``retransmitted(message)`` — once per retransmission answered
          from the token's ``rtr``.
        """
        if sent is not None:
            self._on_sent += (sent,)
        if received is not None:
            self._on_received += (received,)
        if token is not None:
            self._on_token += (token,)
        if retransmitted is not None:
            self._on_retransmitted += (retransmitted,)

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------

    def submit(
        self,
        payload: Any,
        service: Service = Service.AGREED,
        payload_size: int = 0,
        submitted_at: Optional[float] = None,
    ) -> int:
        """Queue an application message; returns the backlog length."""
        self._pending.append(
            _PendingMessage(payload, service, payload_size, submitted_at)
        )
        return len(self._pending)

    @property
    def backlog(self) -> int:
        """Application messages waiting for the token."""
        return len(self._pending)

    def rebind_ring(self, ring: Ring) -> None:
        """Install a new ring after a membership change (and the first
        one, from ``__init__``).

        Resets every piece of per-ring protocol state exactly as a fresh
        participant would start, while keeping what survives a
        configuration change: the application backlog (un-sent messages
        carry over), cumulative stats, and the observers.  The priority
        trigger is keyed on the NEW ring's geometry — size, predecessor
        and our index all change with the membership; keeping the old
        ones would let the wrong participant's messages raise the
        token's priority (or none at all) after a reconfiguration.
        """
        pid = self.pid
        if pid not in ring:
            raise TokenError(
                "participant %r not on ring %r" % (pid, ring.members))
        self.ring = ring
        #: Where our tokens go; read once per handling for
        #: ``TokenRound.dst``.
        self.successor = ring.successor(pid)
        self._window = ReceiveWindow()
        self._ring_size = len(ring)
        self._predecessor = ring.predecessor(pid)
        #: The predecessor's handling that immediately precedes our next
        #: one: our first will be hop (ring_index + 1), so this is
        #: ring_index for round one, then (ours + ring_size - 1).
        self._trigger_hop = ring.index_of(pid)
        #: Data starts with high priority: anything multicast before the
        #: first token must be processed before it, exactly as in steady
        #: state.
        self.token_has_priority = False
        #: seq of the token received in the previous round; gaps are only
        #: requested up to this horizon.
        self._rtr_horizon = 0
        self._accelerated_window = self.config.accelerated_window
        self._last_received_hop = -1
        self._sent_last_round = 0
        self._last_token_sent: Optional[Token] = None
        self._max_round_seen = 0

    # ------------------------------------------------------------------
    # Observable protocol state
    # ------------------------------------------------------------------

    @property
    def accelerated_window(self) -> int:
        """The live accelerated window (adjustable at runtime)."""
        return self._accelerated_window

    def set_accelerated_window(self, window: int) -> None:
        """Adjust the accelerated window on the fly.

        Used by :class:`repro.core.autotune.AcceleratedWindowTuner`; the
        protocol is correct for any non-negative value at any time
        (window 0 degenerates to the original protocol's sending
        pattern), so runtime changes are safe.
        """
        self._accelerated_window = max(0, int(window))

    @property
    def local_aru(self) -> int:
        return self._window.local_aru

    @property
    def delivered_upto(self) -> int:
        return self._window.delivered_upto

    @property
    def safe_bound(self) -> int:
        return self._window.safe_bound

    @property
    def window(self) -> ReceiveWindow:
        return self._window

    @property
    def last_token_sent(self) -> Optional[Token]:
        """The exact token we last sent — retransmitted on timeout."""
        return self._last_token_sent

    def progress_since_token_send(self) -> bool:
        """Has the ring demonstrably advanced past our last token send?

        Used by drivers to decide whether a token-retransmission timer
        should fire: seeing data from a later round, or a newer token,
        proves the token was not lost.
        """
        if self._last_token_sent is None:
            return False
        sent_hop = self._last_token_sent.hop
        return (
            self._last_received_hop >= sent_hop
            or self._max_round_seen > sent_hop
        )

    # ------------------------------------------------------------------
    # Token handling (Section III-A)
    # ------------------------------------------------------------------

    def on_token(self, token: Token) -> Optional[TokenRound]:
        """Handle a received regular token; returns the round to run, or
        ``None`` for a retransmitted token already handled."""
        if token.ring_id != self.ring.ring_id:
            raise TokenError(
                "token for ring %d handed to participant on ring %d"
                % (token.ring_id, self.ring.ring_id)
            )
        if token.hop <= self._last_received_hop:
            # A retransmitted token we already handled.
            self.stats.duplicate_tokens += 1
            return None
        self._last_received_hop = token.hop
        my_hop = token.hop + 1

        # -- 1. pre-token phase: every answerable request first ----------
        window = self._window
        answered: List[DataMessage] = []
        remaining: List[int] = []
        for seq in token.rtr:
            message = window.get(seq)
            if message is not None:
                answered.append(message)
            elif seq > window.discarded_upto:
                # A stable (discarded) message is held by everyone: the
                # request is a stale duplicate and is dropped.
                remaining.append(seq)
        if self._on_retransmitted:
            for message in answered:
                for observer in self._on_retransmitted:
                    observer(message)
        num_retrans = len(answered)
        stats = self.stats
        stats.retransmissions_sent += num_retrans

        # -- flow control: how many new messages this round -------------
        config = self.config
        allowed = max(0, min(
            len(self._pending), config.personal_window,
            config.global_window - token.fcc - num_retrans,
            token.aru + MAX_SEQ_GAP - token.seq,
        ))
        pre, post = self._initiate_messages(allowed, token.seq, my_hop)
        created = len(pre) + len(post)
        stats.messages_sent_pre_token += len(pre)
        new_seq = token.seq + created

        # -- our own retransmission requests ------------------------------
        # With accelerated window 0 (the original Ring) every message the
        # received token covers has been multicast, so the horizon
        # advances before gap computation; under acceleration it advances
        # after, restricting requests to the previous round's seq.  The
        # configured window decides, not the tuned one: no tuned ring
        # starts from window 0, and a tuner shrinking to 0 keeps the
        # previous-round bound, which is safe for any window.
        horizon = self._rtr_horizon
        if token.seq > horizon:
            self._rtr_horizon = token.seq
            if config.accelerated_window == 0:
                horizon = token.seq
        mine = window.missing_between(window.local_aru, horizon)
        stats.retransmissions_requested += len(mine)
        # The loss-free common case builds no set.
        rtr_out = (tuple(sorted(set(remaining) | set(mine)))
                   if remaining or mine else ())

        # -- 2. update the token -----------------------------------------
        new_aru, new_aru_id = self._updated_aru(token, new_seq)
        # Our last-round contribution to fcc swapped for this round's.
        fcc_out = token.fcc - self._sent_last_round + num_retrans + created
        self._sent_last_round = num_retrans + created

        token_out = Token(
            token.ring_id, my_hop, new_seq, new_aru, new_aru_id, fcc_out,
            rtr_out,
        )
        self._last_token_sent = token_out

        # -- 3. the post-token queue goes out after it -------------------
        stats.messages_sent_post_token += len(post)

        # -- 4. deliver and discard --------------------------------------
        window.note_token_sent(new_aru)
        delivered = self._deliver_and_discard()

        # Data regains high priority until the method's trigger fires.
        self._trigger_hop = my_hop + self._ring_size - 1
        self.token_has_priority = False
        stats.tokens_handled += 1
        if self._on_token:
            for observer in self._on_token:
                observer(token, token_out, allowed, num_retrans)
        return TokenRound(answered, pre, token_out, self.successor, post,
                          delivered)

    # ------------------------------------------------------------------
    # Data handling (Section III-B)
    # ------------------------------------------------------------------

    def on_data(self, message: DataMessage) -> List[DataMessage]:
        """Handle a received data message; returns the messages it
        released for delivery, in seq order.

        Delivery is the only effect receiving data can have, so the
        messages come back bare, with no record around them.
        """
        if message.round > self._max_round_seen:
            self._max_round_seen = message.round
        # Section III-C: the predecessor's data from its handling before
        # our next one raises the token's priority (Method 2: only data
        # it sent after passing the token).
        if (not self.token_has_priority
                and message.pid == self._predecessor
                and message.round >= self._trigger_hop
                and (message.sent_after_token or self._aggressive)):
            self.token_has_priority = True
        released = self._window.receive(message)
        stats = self.stats
        if released is None:
            stats.data_duplicates += 1
            return []
        stats.data_received += 1
        if self._on_received:
            for observer in self._on_received:
                observer(message)
        if released:
            stats.delivered += len(released)
        return released

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _initiate_messages(
        self, allowed: int, base_seq: int, my_hop: int
    ) -> Tuple[List[DataMessage], List[DataMessage]]:
        """Create this round's new messages; returns, in seq order, those
        that go out before the token and those that go out after it.

        Mirrors the paper's queue construction: messages are prepared in
        submission order; once the queue holds more than
        ``Accelerated_window`` messages the overflow is multicast
        immediately (pre-token), and whatever remains in the queue (at
        most the accelerated window) is sent post-token.  The split is
        known before any message is built, so each is built once, with
        its final ``sent_after_token``.

        With ``pack_messages`` enabled, each protocol packet greedily
        packs queued small messages up to the MTU budget (Spread's
        built-in packing); flow control counts packets.
        """
        pending = self._pending
        if self.config.pack_messages:
            # A packet's extent is known only once it is packed.
            sources: List[_PendingMessage] = []
            while pending and len(sources) < allowed:
                sources.append(_PendingMessage(
                    *pack_next(pending, MAX_PACKET_PAYLOAD)))
        else:
            popleft = pending.popleft
            sources = [popleft() for _ in range(min(allowed, len(pending)))]
        split = len(sources) - min(len(sources), self._accelerated_window)
        pid = self.pid
        messages = [
            DataMessage(
                base_seq + n, pid, my_hop, source.service, source.payload,
                source.payload_size, n > split, source.submitted_at,
            )
            for n, source in enumerate(sources, 1)
        ]
        if messages:
            # Our own messages are in our window from the moment they are
            # prepared (the loopback copy, if any, is a duplicate).
            self._window.extend(messages)
            on_sent = self._on_sent
            if on_sent:
                for message in messages:
                    for observer in on_sent:
                        observer(message)
        self.stats.messages_initiated += len(messages)
        return messages[:split], messages[split:]

    def _updated_aru(self, token: Token, new_seq: int) -> Tuple[int, Optional[int]]:
        """The aru lower/raise/track rules (Section III-A-2).

        Called after our own messages are in the window, so
        ``local_aru`` already covers them when we were fully caught up.
        """
        local = self._window.local_aru
        if local < token.aru:
            # Rule 1: lower to our local aru and take ownership.
            return local, self.pid
        if token.aru_id == self.pid:
            # Rule 2: we lowered it before and nobody lowered it since
            # (they would have taken ownership) — raise to our local aru,
            # releasing ownership once we are fully caught up.
            return local, (self.pid if local < new_seq else None)
        if token.aru_id is None and token.aru == token.seq:
            # Rule 3: everyone had received everything through the
            # received token's seq; the aru tracks seq across our new
            # messages (all of which we trivially hold).
            return local, None
        return token.aru, token.aru_id

    def _deliver_and_discard(self) -> List[DataMessage]:
        """Step 4: the released run; the window then drops what is
        stable."""
        window = self._window
        deliverable = window.release()
        self.stats.delivered += len(deliverable)
        self.stats.discarded += window.discard_upto(window.discardable_upto())
        return deliverable

    def __repr__(self) -> str:
        return "Participant(pid=%d, aru=%d, delivered=%d, backlog=%d)" % (
            self.pid, self.local_aru, self.delivered_upto, self.backlog,
        )
