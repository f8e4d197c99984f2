"""SWIM-style gossip failure detection (sans-IO).

Totem-style membership discovers failures and mergeable components by
having every Operational daemon *broadcast* a probe every interval —
N daemons put N·(N-1) probe deliveries per interval on the fabric, and
at 50-100 nodes that control-plane flood is exactly what melts under
churn (PR 3 already had to rate-limit join storms).  This module
replaces the detection path with a SWIM-style gossip protocol
[Das et al., SWIM, DSN 2002; the pattern write-up in SNIPPETS.md]:

* **Probing** — each protocol period a node pings ONE peer (randomized
  round-robin over its membership list, which bounds the time to first
  probe of any member).  If no ack arrives in time, it asks ``k``
  other peers to ping the target on its behalf (``ping-req``), which
  separates "the target is dead" from "my link to the target is bad".
* **Suspicion** — a target that answers nobody becomes *suspect*, not
  dead.  Suspicion is gossiped; the suspect, on hearing its own
  suspicion, *refutes* it by bumping its incarnation number and
  gossiping a fresher ``alive``.  Only an unrefuted suspicion expires
  into a *confirm* (declared dead).
* **Dissemination** — updates ride piggybacked on ping/ping-req/ack
  traffic (no extra datagrams).  The gossip buffer is bounded: each
  update is retransmitted O(log n) times and then dropped, so per-node
  control traffic stays O(1) datagrams per period regardless of
  cluster size.

The detector is sans-IO and tick-driven like
:class:`~repro.membership.controller.EVSProcess`: the host calls
:meth:`GossipDetector.tick` once per logical tick and
:meth:`GossipDetector.handle` per received message; both return
``(messages, events)`` where messages are ``(dst, message)`` pairs to
put on the wire and events are the suspect/confirm/alive stream the
ring membership controller consumes (`EVSProcess.notify_peer_failed`
/ ``notify_peer_alive``).  Totem-style gather/commit still forms the
actual views — gossip only decides *when* to reconfigure and about
whom, which is the cheap part to scale.

Update precedence is a total order on ``(incarnation, status rank)``
with ranks alive(0) < suspect(1) < dead(2): an update applies iff its
pair is strictly greater than the stored one.  This is SWIM's rule set
collapsed into one comparison, with one deliberate extension: a
``dead`` record is *not* terminal — an ``alive`` with a strictly
higher incarnation resurrects the member.  Restarted daemons have
total amnesia (they cannot know their old incarnation), so rejoin
works by refutation: the restarted node hears its own ``dead`` record
piggybacked on an ack, adopts ``dead_incarnation + 1``, and gossips
itself back to life.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .messages import GossipAck, GossipPing, GossipPingReq, GossipUpdate

#: Member status codes (wire-stable: these go into gossip updates).
ALIVE = 0
SUSPECT = 1
DEAD = 2


# ---------------------------------------------------------------------------
# Events toward the membership controller
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PeerAlive:
    """``pid`` is (back) among the living — merge/rejoin trigger."""

    pid: int
    incarnation: int


@dataclass(frozen=True, slots=True)
class PeerSuspect:
    """``pid`` missed a whole probe round (direct + indirect)."""

    pid: int
    incarnation: int


@dataclass(frozen=True, slots=True)
class PeerConfirm:
    """``pid``'s suspicion expired unrefuted: declared dead."""

    pid: int
    incarnation: int


# ---------------------------------------------------------------------------
# Timing (in detector ticks; the host defines the tick length) and member
# state
# ---------------------------------------------------------------------------

#: One probe round starts every this many ticks.
PING_INTERVAL_TICKS = 10
#: Direct-ping ack deadline; after it the indirect round starts.
PING_TIMEOUT_TICKS = 6
#: Total probe-round deadline (direct + indirect) before suspicion.
PROBE_TIMEOUT_TICKS = 14
#: How long a suspicion may stand before it becomes a confirm.
SUSPICION_TICKS = 60
#: How many peers are asked to ping-req an unresponsive target.
INDIRECT_PROBES = 3
#: Max piggybacked updates per outgoing message (bounded buffer).
MAX_PIGGYBACK = 8
#: An update is retransmitted ``RETRANSMIT_FACTOR * ceil(log2(n+1))``
#: times before it leaves the gossip buffer.
RETRANSMIT_FACTOR = 3
#: Every this many probe rounds, one extra ping goes to a DEAD member
#: (round-robin): the reconnaissance that lets healed partitions and
#: restarted amnesiacs find their way back without any broadcast.
RECON_ROUND_INTERVAL = 4


class _Member:
    __slots__ = ("pid", "incarnation", "status", "since_tick")

    def __init__(self, pid: int, incarnation: int, status: int,
                 since_tick: int) -> None:
        self.pid = pid
        self.incarnation = incarnation
        self.status = status
        self.since_tick = since_tick


class _Probe:
    """One in-flight probe round."""

    __slots__ = ("target", "started_tick", "indirect_sent")

    def __init__(self, target: int, started_tick: int) -> None:
        self.target = target
        self.started_tick = started_tick
        self.indirect_sent = False


class _Relay:
    """Book-keeping for a ping we sent on someone else's behalf."""

    __slots__ = ("origin", "origin_probe_id", "target")

    def __init__(self, origin: int, origin_probe_id: int, target: int) -> None:
        self.origin = origin
        self.origin_probe_id = origin_probe_id
        self.target = target


#: (dst pid, message) pairs the host must put on the wire.
Send = Tuple[int, object]
#: PeerAlive / PeerSuspect / PeerConfirm stream for the controller.
Event = object


class GossipDetector:
    """One node's SWIM state machine (sans-IO, deterministic).

    Determinism: peer selection uses a :class:`random.Random` seeded
    from ``(seed, pid)``, so a simulated cluster replays identically;
    two detectors never share an RNG.
    """

    __slots__ = (
        "pid", "incarnation", "_tick", "_rng", "_members",
        "_probe_order", "_probe_cursor", "_round_counter",
        "_recon_cursor", "_probe_seq", "_inflight", "_relays",
        "_buffer", "messages_sent", "false_suspicions_refuted",
    )

    def __init__(self, pid: int, seed: int = 0) -> None:
        self.pid = pid
        self.incarnation = 0
        self._tick = 0
        self._rng = random.Random((seed * 0x9E3779B1 + pid) & 0xFFFFFFFF)
        self._members: Dict[int, _Member] = {}
        #: Randomized round-robin probe order (SWIM §4.3): shuffle once,
        #: walk to the end, reshuffle.  Bounds worst-case detection time.
        self._probe_order: List[int] = []
        self._probe_cursor = 0
        self._round_counter = 0
        self._recon_cursor = 0
        self._probe_seq = 0
        self._inflight: Dict[int, _Probe] = {}
        self._relays: Dict[int, _Relay] = {}
        #: Gossip buffer: update -> remaining retransmissions.
        self._buffer: Dict[GossipUpdate, int] = {}
        # Stats (the churn campaigns chart these).
        self.messages_sent = 0
        self.false_suspicions_refuted = 0

    # -- introspection -----------------------------------------------------

    def members(self) -> Dict[int, Tuple[int, int]]:
        """pid -> (incarnation, status) snapshot (self excluded)."""
        return {
            m.pid: (m.incarnation, m.status) for m in self._members.values()
        }

    def status_of(self, pid: int) -> Optional[int]:
        member = self._members.get(pid)
        return None if member is None else member.status

    # -- membership seeding ------------------------------------------------

    def seed_members(self, pids: Iterable[int]) -> None:
        """Install the boot-time host list (everyone alive at inc 0).

        A cluster's static host list plays the role SWIM's join step
        plays in open-membership systems; nodes learned later via
        traffic are added on first contact.
        """
        for pid in pids:
            if pid != self.pid and pid not in self._members:
                self._members[pid] = _Member(pid, 0, ALIVE, self._tick)

    # -- gossip buffer -----------------------------------------------------

    def _retransmit_limit(self) -> int:
        n = len(self._members) + 1
        log2 = max(1, (n - 1).bit_length())
        return RETRANSMIT_FACTOR * log2

    def _enqueue(self, update: GossipUpdate) -> None:
        # A fresher claim about the same pid obsoletes the buffered one.
        stale = [
            u for u in self._buffer
            if u.pid == update.pid and (u.incarnation, u.status)
            < (update.incarnation, update.status)
        ]
        for u in stale:
            del self._buffer[u]
        if any(u.pid == update.pid and (u.incarnation, u.status)
               >= (update.incarnation, update.status) for u in self._buffer):
            return
        self._buffer[update] = self._retransmit_limit()

    def _piggyback(self) -> Tuple[GossipUpdate, ...]:
        """Select up to ``MAX_PIGGYBACK`` updates, freshest-first.

        Selection charges each chosen update one retransmission;
        exhausted updates leave the buffer — this is what keeps the
        buffer (and every datagram) bounded.
        """
        if not self._buffer:
            return ()
        chosen = sorted(
            self._buffer.items(),
            key=lambda item: (-item[1], item[0].pid, item[0].incarnation),
        )[:MAX_PIGGYBACK]
        out = []
        for update, remaining in chosen:
            out.append(update)
            if remaining <= 1:
                del self._buffer[update]
            else:
                self._buffer[update] = remaining - 1
        return tuple(out)

    # -- update application ------------------------------------------------

    @staticmethod
    def _precedence(incarnation: int, status: int) -> Tuple[int, int]:
        return (incarnation, status)

    def _apply_update(self, update: GossipUpdate,
                      events: List[Event]) -> None:
        if update.pid == self.pid:
            # Refutation: any claim that we are suspect/dead at our
            # incarnation (or beyond) is beaten by a higher incarnation.
            if update.status in (SUSPECT, DEAD) \
                    and update.incarnation >= self.incarnation:
                self.incarnation = update.incarnation + 1
                self.false_suspicions_refuted += 1
                self._enqueue(
                    GossipUpdate(self.pid, self.incarnation, ALIVE)
                )
            return
        member = self._members.get(update.pid)
        if member is None:
            if update.status == DEAD:
                # Don't resurrect-then-kill unknown pids; just remember.
                self._members[update.pid] = _Member(
                    update.pid, update.incarnation, DEAD, self._tick
                )
                return
            self._members[update.pid] = _Member(
                update.pid, update.incarnation, update.status, self._tick
            )
            self._probe_order.append(update.pid)
            self._enqueue(update)
            events.append(
                PeerAlive(update.pid, update.incarnation)
                if update.status == ALIVE
                else PeerSuspect(update.pid, update.incarnation)
            )
            return
        current = self._precedence(member.incarnation, member.status)
        incoming = self._precedence(update.incarnation, update.status)
        if incoming <= current:
            return
        was = member.status
        member.incarnation = update.incarnation
        member.status = update.status
        member.since_tick = self._tick
        self._enqueue(update)
        if update.status == ALIVE and was != ALIVE:
            events.append(PeerAlive(update.pid, update.incarnation))
        elif update.status == SUSPECT and was != SUSPECT:
            events.append(PeerSuspect(update.pid, update.incarnation))
        elif update.status == DEAD and was != DEAD:
            events.append(PeerConfirm(update.pid, update.incarnation))

    def _alive_evidence(self, pid: int, incarnation: int,
                        events: List[Event]) -> None:
        """Direct contact with ``pid`` (ack or ping) proves it alive."""
        self._apply_update(GossipUpdate(pid, incarnation, ALIVE), events)
        member = self._members.get(pid)
        if member is not None and member.status != ALIVE \
                and member.incarnation <= incarnation:
            # Same-incarnation suspicion cannot be cleared by evidence
            # alone under the precedence order (suspect outranks alive
            # at equal incarnation, so third parties need the
            # refutation) — but *local* direct contact is stronger than
            # gossip: stop our own suspicion clock so we never confirm
            # a node we can literally hear.
            member.since_tick = self._tick

    # -- probing -----------------------------------------------------------

    def _next_probe_target(self) -> Optional[int]:
        candidates = [
            m.pid for m in self._members.values() if m.status != DEAD
        ]
        if not candidates:
            return None
        for _attempt in range(len(self._probe_order) + 1):
            if self._probe_cursor >= len(self._probe_order):
                self._probe_order = candidates
                self._rng.shuffle(self._probe_order)
                self._probe_cursor = 0
            pid = self._probe_order[self._probe_cursor]
            self._probe_cursor += 1
            member = self._members.get(pid)
            if member is not None and member.status != DEAD \
                    and pid not in {p.target for p in self._inflight.values()}:
                return pid
        return None

    def _recon_target(self) -> Optional[int]:
        dead = sorted(
            m.pid for m in self._members.values() if m.status == DEAD
        )
        if not dead:
            return None
        self._recon_cursor = (self._recon_cursor + 1) % len(dead)
        return dead[self._recon_cursor]

    def _make_ping(self, target: int) -> Tuple[int, GossipPing]:
        self._probe_seq += 1
        probe_id = self._probe_seq
        self._inflight[probe_id] = _Probe(target, self._tick)
        return probe_id, GossipPing(
            self.pid, self.incarnation, probe_id, self._piggyback()
        )

    def _indirect_relayers(self, target: int) -> List[int]:
        candidates = [
            m.pid for m in self._members.values()
            if m.status == ALIVE and m.pid != target
        ]
        self._rng.shuffle(candidates)
        return candidates[:INDIRECT_PROBES]

    # -- the sans-IO surface ----------------------------------------------

    def tick(self) -> Tuple[List[Send], List[Event]]:
        """Advance one tick: fire probes, escalate timeouts."""
        self._tick += 1
        sends: List[Send] = []
        events: List[Event] = []

        # Escalate in-flight probes.
        for probe_id in sorted(self._inflight):
            probe = self._inflight[probe_id]
            age = self._tick - probe.started_tick
            member = self._members.get(probe.target)
            if member is None or member.status == DEAD:
                del self._inflight[probe_id]
                continue
            if age >= PROBE_TIMEOUT_TICKS:
                del self._inflight[probe_id]
                if member.status == ALIVE:
                    update = GossipUpdate(
                        probe.target, member.incarnation, SUSPECT
                    )
                    member.status = SUSPECT
                    member.since_tick = self._tick
                    self._enqueue(update)
                    events.append(
                        PeerSuspect(probe.target, member.incarnation)
                    )
            elif age >= PING_TIMEOUT_TICKS and not probe.indirect_sent:
                probe.indirect_sent = True
                for relayer in self._indirect_relayers(probe.target):
                    sends.append((relayer, GossipPingReq(
                        self.pid, self.incarnation, probe.target,
                        probe_id, self._piggyback(),
                    )))

        # Expire suspicions into confirms.
        for member in list(self._members.values()):
            if member.status == SUSPECT and \
                    self._tick - member.since_tick >= SUSPICION_TICKS:
                member.status = DEAD
                member.since_tick = self._tick
                self._enqueue(
                    GossipUpdate(member.pid, member.incarnation, DEAD)
                )
                events.append(PeerConfirm(member.pid, member.incarnation))

        # Start the periodic probe round.
        if self._tick % PING_INTERVAL_TICKS == 0:
            self._round_counter += 1
            target = self._next_probe_target()
            if target is not None:
                _probe_id, ping = self._make_ping(target)
                sends.append((target, ping))
            if self._round_counter % RECON_ROUND_INTERVAL == 0:
                recon = self._recon_target()
                if recon is not None:
                    # Fire-and-forget: no probe record, so no suspicion
                    # can come of it — a dead node is already dead.
                    self._probe_seq += 1
                    sends.append((recon, GossipPing(
                        self.pid, self.incarnation, self._probe_seq,
                        self._piggyback(),
                    )))

        self.messages_sent += len(sends)
        return sends, events

    def handle(self, message: object, src: int) -> Tuple[List[Send], List[Event]]:
        """Process one received gossip message."""
        sends: List[Send] = []
        events: List[Event] = []
        if isinstance(message, GossipPing):
            for update in message.updates:
                self._apply_update(update, events)
            self._alive_evidence(message.sender, message.incarnation, events)
            updates = self._piggyback()
            member = self._members.get(message.sender)
            if member is not None and member.status == DEAD:
                # The sender is talking, yet our books say dead: hand it
                # the record so it can refute (rejoin-by-refutation).
                updates = updates + (GossipUpdate(
                    member.pid, member.incarnation, DEAD
                ),)
            sends.append((src, GossipAck(
                self.pid, self.incarnation, message.probe_id, updates
            )))
        elif isinstance(message, GossipPingReq):
            for update in message.updates:
                self._apply_update(update, events)
            self._alive_evidence(message.sender, message.incarnation, events)
            self._probe_seq += 1
            sub_id = self._probe_seq
            self._relays[sub_id] = _Relay(
                message.sender, message.probe_id, message.target
            )
            sends.append((message.target, GossipPing(
                self.pid, self.incarnation, sub_id, self._piggyback()
            )))
        elif isinstance(message, GossipAck):
            for update in message.updates:
                self._apply_update(update, events)
            self._alive_evidence(message.sender, message.incarnation, events)
            relay = self._relays.pop(message.probe_id, None)
            if relay is not None and message.sender == relay.target:
                # Relay the attestation to whoever asked for it.
                sends.append((relay.origin, GossipAck(
                    message.sender, message.incarnation,
                    relay.origin_probe_id, self._piggyback(),
                )))
            self._inflight.pop(message.probe_id, None)
        else:
            raise TypeError("unknown gossip message %r" % (message,))
        self.messages_sent += len(sends)
        return sends, events
