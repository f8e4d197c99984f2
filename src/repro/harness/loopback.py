"""Deterministic in-process ring driver for correctness testing.

Runs a set of :class:`~repro.core.Participant` state machines over an
instantaneous, per-link-FIFO "network" with optional message dropping.
There is no notion of time — participants take turns round-robin,
processing one pending input per turn according to the protocol's
token/data priority rules — so every run is exactly reproducible and
suitable for unit, property-based and differential tests.

Performance questions (latency, throughput) are answered by the
discrete-event substrate in :mod:`repro.sim`, not here.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence

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

#: Optional drop predicates: return True to lose the message on that link.
DataDropRule = Callable[[DataMessage, int], bool]
TokenDropRule = Callable[[Token, int], bool]


class StabilityViolation(AssertionError):
    """A Safe message was delivered before everyone had it."""


class LoopbackRing:
    """An N-participant ring with an instantaneous loss-injectable network."""

    def __init__(
        self,
        pids: Sequence[int],
        config: Optional[ProtocolConfig] = None,
        drop_data: Optional[DataDropRule] = None,
        drop_token: Optional[TokenDropRule] = None,
        on_deliver: Optional[Callable[[int, DataMessage], None]] = None,
    ) -> None:
        self.ring = Ring.of(pids)
        self.config = config or ProtocolConfig()
        self.participants: Dict[int, Participant] = {
            pid: Participant(pid, self.ring, self.config) for pid in self.ring
        }
        self._drivers: Dict[int, RingDriver] = {
            pid: RingDriver(self._port(pid, participant))
            for pid, participant in self.participants.items()
        }
        #: The highest token hop any participant has handled, kept where
        #: a token is routed: every handling sends the next hop at once.
        self._highest_hop = -1
        self._drop_data = drop_data
        self._drop_token = drop_token
        self._on_deliver = on_deliver
        #: Per-participant delivery logs, in order: the consumer of every
        #: delivery when no ``on_deliver`` is given, else empty.
        self.delivered: Dict[int, List[DataMessage]] = {p: [] for p in self.ring}
        #: Deliveries so far, across all participants.
        self._total_delivered = 0
        self.steps_taken = 0
        self.data_drops = 0
        self.token_drops = 0
        self._started = False

    # -- workload --------------------------------------------------------

    def submit(
        self,
        pid: int,
        payload: Any,
        service: Service = Service.AGREED,
        payload_size: int = 0,
    ) -> None:
        self.participants[pid].submit(payload, service, payload_size)

    def submit_many(
        self, pid: int, payloads: Sequence[Any], service: Service = Service.AGREED
    ) -> None:
        for payload in payloads:
            self.submit(pid, payload, service)

    # -- execution ---------------------------------------------------------

    def start(self) -> None:
        """Inject the first regular token at the ring leader."""
        if self._started:
            raise RuntimeError("ring already started")
        self._started = True
        self._drivers[self.ring.leader].tokens.append(
            initial_token(self.ring.ring_id)
        )

    def step(self) -> bool:
        """Let each participant process at most one input; False if idle."""
        progressed = False
        for driver in self._drivers.values():
            if driver.step():
                progressed = True
        if progressed:
            self.steps_taken += 1
        return progressed

    def run(self, max_steps: int = 100_000) -> int:
        """Step until quiescent; returns steps taken.

        A ring with a live token never quiesces on its own, so the run
        also stops once no data is pending anywhere and the token has
        made three further rounds with no delivery (to raise aru and
        deliver Safe messages).
        """
        if not self._started:
            self.start()
        idle_token_rounds = 0
        hops_per_round = len(self.ring)
        last_hop_seen = -1
        last_delivered = self._total_delivered
        for step in range(max_steps):
            if not self.step():
                return step
            # A round only counts as idle if nothing was DELIVERED in it
            # either: after a retransmission recovers a lagging
            # participant, the token aru jumps and Safe messages need up
            # to two further rotations (the two-rotation stability rule)
            # before everyone's safe bound catches up.  Counting those
            # rotations as idle parks the token with deliverable
            # messages still pending.
            delivered = self._total_delivered
            if delivered != last_delivered:
                last_delivered = delivered
                idle_token_rounds = 0
            if self._all_data_done():
                current_hop = self._highest_hop
                if current_hop >= last_hop_seen + hops_per_round:
                    idle_token_rounds += 1
                    last_hop_seen = current_hop
                if idle_token_rounds >= 3:
                    return step
            else:
                idle_token_rounds = 0
                last_hop_seen = self._highest_hop
        raise RuntimeError("run() did not settle within %d steps" % max_steps)

    def run_rounds(self, rounds: int, max_steps: int = 1_000_000) -> None:
        """Run until the leader has handled ``rounds`` more tokens."""
        if not self._started:
            self.start()
        leader = self.participants[self.ring.leader]
        target = leader.stats.tokens_handled + rounds
        for _step in range(max_steps):
            if leader.stats.tokens_handled >= target:
                return
            if not self.step():
                raise RuntimeError(
                    "ring went idle before completing %d rounds" % rounds
                )
        raise RuntimeError("run_rounds() exceeded %d steps" % max_steps)

    def retransmit_token(self, pid: int) -> None:
        """Simulate the token-retransmission timer firing at ``pid``."""
        participant = self.participants[pid]
        token = participant.last_token_sent
        if token is None:
            return
        self._route_token(token, participant.successor, allow_drop=False)

    # -- inspection ----------------------------------------------------------

    def delivered_seqs(self, pid: int) -> List[int]:
        return [m.seq for m in self.delivered[pid]]

    def delivered_payloads(self, pid: int) -> List[Any]:
        return [m.payload for m in self.delivered[pid]]

    def _all_data_done(self) -> bool:
        # Read after every step: no generator or property call per member.
        for driver in self._drivers.values():
            if driver.data:
                return False
        for participant in self.participants.values():
            if participant._pending:
                return False
        return True

    # -- internals --------------------------------------------------------------

    def _port(self, pid: int, participant: Participant) -> SimpleNamespace:
        """``pid``'s driver port: its effects land on the shared ring.

        No cost model and no clock: the driver loop never yields, and
        token retransmission is the test's call (:meth:`retransmit_token`).
        """
        def multicast_batch(messages, _datagram_bytes: int) -> None:
            for message in messages:
                self._route_data(pid, message)

        return SimpleNamespace(
            participant=participant, pauses=None,
            multicast=partial(self._route_data, pid),
            multicast_batch=multicast_batch,
            send_token=partial(self._route_token, allow_drop=True),
            deliver=partial(self._record_delivery, pid),
            set_timer=lambda *_timer: None,
        )

    def _route_data(self, source: int, message: DataMessage) -> None:
        for pid in self.ring:
            if pid == source:
                continue
            if self._drop_data is not None and self._drop_data(message, pid):
                self.data_drops += 1
                continue
            self._drivers[pid].data.append(message)

    def _route_token(self, token: Token, dst: int, allow_drop: bool) -> None:
        # The sender handled hop ``token.hop - 1``, even if this copy is
        # lost; a retransmitted token is an older one and moves nothing.
        if token.hop > self._highest_hop + 1:
            self._highest_hop = token.hop - 1
        if (
            allow_drop
            and self._drop_token is not None
            and self._drop_token(token, dst)
        ):
            self.token_drops += 1
            return
        self._drivers[dst].tokens.append(token)

    def _record_delivery(self, pid: int, message: DataMessage) -> None:
        self._total_delivered += 1
        if self._on_deliver is None:
            self.delivered[pid].append(message)
        else:
            self._on_deliver(pid, message)
        if message.service is Service.SAFE:
            seq = message.seq
            for other_pid, other in self.participants.items():
                # A seq at or below the local aru is held (or was
                # discarded as stable): the slots only for the rest.
                window = other._window
                if seq > window.local_aru and window.get(seq) is None:
                    raise StabilityViolation(
                        "pid %d delivered Safe seq %d before pid %d received it"
                        % (pid, seq, other_pid)
                    )
