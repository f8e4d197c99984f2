"""The membership state machine: Gather / Commit / Recover / Operational.

A faithful-but-simplified version of the Totem membership algorithm as
used by Spread (the paper reuses it unchanged; the ordering protocol is
the contribution).  Each :class:`EVSProcess` wraps one ordering
:class:`~repro.core.Participant` and carries it through configuration
changes with Extended Virtual Synchrony semantics:

* **Operational** — normal ordering on the current ring.  Token loss,
  a foreign message, or a join shifts the process to Gather.
* **Gather** — flood :class:`JoinMessage`s until every live member of
  the proposed ``proc_set`` agrees on (proc_set, fail_set); unresponsive
  processes move to the fail set on timeout.  The lowest-id member of
  the agreed membership is the representative.
* **Commit** — the representative circulates a :class:`CommitToken`;
  rotation one collects every member's old-ring state, rotation two
  distributes the complete table.
* **Recover** — members flood the old-ring messages they hold (down to
  the continuing members' common delivery floor), then deliver: the
  gap-free stable prefix in the old regular configuration, a
  transitional configuration event, the remaining recovered messages
  with transitional guarantees, and finally the new regular
  configuration — after which a fresh ring starts.

Time is logical: the driver calls :meth:`EVSProcess.tick` once per step
and all timeouts are counted in ticks, keeping every scenario
deterministic and replayable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union,
)

from ..core import (
    DataMessage,
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    Token,
    TokenRound,
    initial_token,
)
from ..evs import AppMessage, ConfigChange, Configuration
from .messages import (
    CommitToken,
    JoinMessage,
    MemberInfo,
    ProbeMessage,
    RecoveryComplete,
    RecoveryData,
)


class State(enum.Enum):
    OPERATIONAL = "operational"
    GATHER = "gather"
    COMMIT = "commit"
    RECOVER = "recover"


#: Ring ids are (sequence, representative) packed into one int so that
#: two partitions reconfiguring concurrently can never mint the same id
#: (Totem's ring ids are (rep, seq) pairs for exactly this reason).
_RING_ID_STRIDE = 1 << 20


def make_ring_id(seq: int, representative: int) -> int:
    return seq * _RING_ID_STRIDE + representative


def ring_id_seq(ring_id: int) -> int:
    return ring_id // _RING_ID_STRIDE


@dataclass(frozen=True)
class Outgoing:
    """A message the process wants sent.  ``dst`` None means multicast."""

    kind: str  # "token" | "data" | "ctrl"
    payload: Any
    dst: Optional[int] = None


@dataclass
class MembershipTimeouts:
    """All in logical ticks (one driver step each)."""

    token_loss_ticks: int = 60
    gather_ticks: int = 40
    commit_ticks: int = 80
    #: How often an Operational process announces itself (merge discovery).
    probe_interval_ticks: int = 25


def on_one_ring(processes: Sequence[EVSProcess]) -> bool:
    """Membership has converged for these processes: every one is
    Operational on one ring id whose members are exactly their pids.

    The one convergence rule; each EVS substrate applies it per
    connected component of live processes.
    """
    expected = tuple(sorted(process.pid for process in processes))
    return all(
        process.state is State.OPERATIONAL
        and tuple(process.ring.members) == expected
        for process in processes
    ) and len({process.ring.ring_id for process in processes}) <= 1


class EVSProcess:
    """One process running ordering + membership with EVS delivery."""

    #: Reconfiguration attempts without a successful install before the
    #: singleton circuit breaker fires (see _start_gather).
    _FRUSTRATION_LIMIT = 10
    #: After this many fruitless gather timeouts, collapse to a
    #: singleton ring (guaranteed progress); probes re-merge later.
    _MAX_GATHER_ATTEMPTS = 8

    def __init__(
        self,
        pid: int,
        config: Optional[ProtocolConfig] = None,
        timeouts: Optional[MembershipTimeouts] = None,
        stable_ring_seq: int = 0,
    ) -> None:
        self.pid = pid
        self.config = config or ProtocolConfig()
        self.timeouts = timeouts or MembershipTimeouts()
        # Symmetry breaker.  Identical timers across processes let
        # concurrent membership attempts collide in perfect lockstep
        # forever: every gather times out on the same tick, every
        # process restarts on the same tick, and the collision repeats —
        # a true livelock under a deterministic driver.  Totem breaks
        # such orbits with randomized timers; we use a deterministic
        # per-(pid, attempt) jitter instead, which keeps every scenario
        # replayable.  The jitter must change from attempt to attempt —
        # a fixed per-pid offset merely trades one periodic orbit for
        # another.
        self._attempt_counter = 0
        self._rejitter()
        #: Totem-style probe broadcasts announce an Operational process
        #: every probe interval — an all-to-all control flood at scale.
        #: A host that runs an external failure detector (the SWIM-style
        #: gossip layer, :mod:`repro.membership.gossip`) turns them off
        #: and feeds :meth:`notify_peer_alive` / :meth:`notify_peer_failed`
        #: instead; gather/commit/recovery are unchanged.
        self.probes_enabled = True
        #: Application-visible events: AppMessage and ConfigChange, in order.
        self.app_log: List[Union[AppMessage, ConfigChange]] = []

        # Boot as a singleton configuration (Totem-style).
        self.ring = Ring.of([pid], ring_id=pid)
        self.participant = Participant(pid, self.ring, self.config)
        self.state = State.OPERATIONAL
        self.app_log.append(ConfigChange(Configuration.regular(pid, (pid,))))

        # Totem keeps the ring sequence number in stable storage so a
        # ring id is never reused across a crash: a rebooted process
        # that starts its singleton rings from zero can re-mint a ring
        # id its previous incarnation already delivered messages under,
        # and two different configurations sharing one id is a virtual
        # synchrony violation waiting to be observed.  A restarting
        # driver passes the previous incarnation's value here (the
        # "disk"); everything else about the process is amnesiac.
        self._highest_ring_seq = stable_ring_seq
        self._ticks_since_token = 0
        self._state_ticks = 0

        # Gather state.
        self._proc_set: Set[int] = {pid}
        self._fail_set: Set[int] = set()
        self._joins: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
        self._gather_attempts = 0
        self._frustration = 0
        self._join_cooldown = 0
        self._join_dirty = False
        self._mismatch_strikes: Dict[int, int] = {}
        self._silence_strikes: Dict[int, int] = {}
        self._strike_snapshot: Dict[int, Tuple[FrozenSet[int], FrozenSet[int]]] = {}

        # Commit/recovery state.
        self._commit: Optional[CommitToken] = None
        self._recovery_union: Dict[int, DataMessage] = {}
        self._recovery_done: Set[int] = set()
        self._installed = True

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------

    def submit(self, payload: Any, service: Service = Service.AGREED,
               payload_size: int = 0) -> None:
        self.participant.submit(payload, service, payload_size)

    def delivered_messages(self) -> List[AppMessage]:
        return [e for e in self.app_log if isinstance(e, AppMessage)]

    def configurations(self) -> List[Configuration]:
        return [e.configuration for e in self.app_log if isinstance(e, ConfigChange)]

    @property
    def current_configuration(self) -> Configuration:
        for event in reversed(self.app_log):
            if isinstance(event, ConfigChange):
                return event.configuration
        raise RuntimeError("no configuration delivered yet")

    # ------------------------------------------------------------------
    # Driver API: message handling
    # ------------------------------------------------------------------

    def _is_foreign(self, ring_id: int, src: int) -> bool:
        """A message that justifies reconfiguration.

        Traffic from a process outside our ring means a mergeable
        component exists; traffic for a *newer* ring means we were left
        behind.  Traffic for an older ring we have moved past is merely
        stale and must NOT trigger a new membership round (that would
        reconfigure forever on queued leftovers).
        """
        if ring_id == self.ring.ring_id:
            return False
        if src not in self.ring:
            return True
        return ring_id_seq(ring_id) > ring_id_seq(self.ring.ring_id)

    def handle_token(self, ring_id: int, token: Token, src: int) -> List[Outgoing]:
        if self.state is not State.OPERATIONAL:
            return []  # membership change in progress; old tokens die
        if ring_id != self.ring.ring_id:
            if self._is_foreign(ring_id, src):
                return self._start_gather(extra_procs={src})
            return []
        self._ticks_since_token = 0
        return self._run_token_round(self.participant.on_token(token))

    def handle_data(self, ring_id: int, message: DataMessage, src: int) -> List[Outgoing]:
        if ring_id != self.ring.ring_id:
            if self.state is State.OPERATIONAL and self._is_foreign(ring_id, src):
                return self._start_gather(extra_procs={src})
            return []
        if not self._installed:
            return []
        # Data for the current ring is processed (and delivered — the
        # regular configuration stands until a config change is
        # delivered) even while membership is forming, so recovery has
        # as much as possible to work with.
        self._ticks_since_token = 0
        for delivered in self.participant.on_data(message):
            self._log_delivery(delivered)
        return []

    def bootstrap(self) -> List[Outgoing]:
        """Announce ourselves at startup: enter Gather immediately.

        A freshly started daemon does not wait to be discovered; it
        floods a join so connected processes form a ring right away.
        """
        return self._start_gather()

    def handle_ctrl(self, message: Any, src: int) -> List[Outgoing]:
        if isinstance(message, ProbeMessage):
            return self._on_probe(message)
        if isinstance(message, JoinMessage):
            return self._on_join(message)
        if isinstance(message, CommitToken):
            return self._on_commit_token(message)
        if isinstance(message, RecoveryData):
            return self._on_recovery_data(message)
        if isinstance(message, RecoveryComplete):
            return self._on_recovery_complete(message)
        raise TypeError("unknown control message %r" % (message,))

    def tick(self) -> List[Outgoing]:
        """One logical time step: drive the state's timeout."""
        self._state_ticks += 1
        if self.state is State.OPERATIONAL:
            self._ticks_since_token += 1
            if (
                len(self.ring) > 1
                and self._ticks_since_token > self.timeouts.token_loss_ticks
            ):
                return self._start_gather()
            if self.probes_enabled and self._state_ticks % self._probe_ticks == 0:
                return [
                    Outgoing("ctrl", ProbeMessage(self.pid, self.ring.ring_id))
                ]
            return []
        if self.state is State.GATHER:
            out: List[Outgoing] = []
            if self._join_cooldown > 0:
                self._join_cooldown -= 1
                if self._join_cooldown == 0 and self._join_dirty:
                    out.extend(self._broadcast_join())
            if self._state_ticks > self._gather_ticks:
                out.extend(self._gather_timeout())
            return out
        # COMMIT or RECOVER stuck: fall back to gather among the members
        # we were trying to form (minus nobody; the next gather round's
        # timeout will fail the unresponsive ones).  The failed attempt's
        # membership is carried into the new gather — resetting to the
        # old ring would forget every process learned during the attempt
        # and re-fragment the membership.
        if self._state_ticks > self._commit_ticks:
            attempt = set(self._commit.members) if self._commit else set()
            return self._start_gather(extra_procs=attempt)
        return []

    @property
    def token_has_priority(self) -> bool:
        return self.participant.token_has_priority

    @property
    def stable_ring_seq(self) -> int:
        """The persisted ring epoch a restart must carry forward.

        Models Totem's stable-storage ring sequence number: the value
        is updated whenever a higher ring sequence is observed (join,
        commit token, install), which is exactly when a real daemon
        would write it to disk.
        """
        return self._highest_ring_seq

    def restarted(self) -> EVSProcess:
        """The next incarnation of this process after a crash.

        Same pid, config and timeouts; amnesiac for everything volatile
        (no old-ring state, empty buffers — exactly what a restarted
        daemon has).  Only the stable-storage ring epoch survives, so
        the incarnation can never reuse a ring id.  Both EVS substrates
        restart a process through here.
        """
        return EVSProcess(self.pid, self.config, self.timeouts,
                          stable_ring_seq=self.stable_ring_seq)

    # ------------------------------------------------------------------
    # Operational internals
    # ------------------------------------------------------------------

    def _run_token_round(self, handled: Optional[TokenRound]) -> List[Outgoing]:
        """The participant's token round as outgoing traffic, in step
        order; its delivered run goes to the regular-configuration log."""
        if handled is None:
            return []
        ring_id = self.ring.ring_id
        out = [Outgoing("data", (ring_id, message))
               for message in handled.retransmitted + handled.pre]
        out.append(Outgoing("token", (ring_id, handled.token), dst=handled.dst))
        out.extend(Outgoing("data", (ring_id, message))
                   for message in handled.post)
        for message in handled.delivered:
            self._log_delivery(message)
        return out

    def _log_delivery(self, message: DataMessage) -> None:
        """Append a message delivered in the regular configuration."""
        self.app_log.append(
            AppMessage(
                ring_id=self.ring.ring_id,
                seq=message.seq,
                sender=message.pid,
                payload=message.payload,
                safe=message.service.requires_stability,
                transitional=False,
            )
        )

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------

    def _rejitter(self) -> None:
        """Re-draw the timer jitter for the next membership attempt.

        A deterministic stand-in for Totem's randomized timeouts: a
        small hash of (pid, attempt number) offsets the gather, commit
        and probe timers, so colliding attempts drift out of phase and
        — because the offsets differ every round — the membership race
        cannot settle into a periodic orbit.
        """
        self._attempt_counter += 1
        x = (self.pid * 2654435761 + self._attempt_counter * 40503) & 0xFFFFFFFF
        x ^= x >> 16
        # Offsets scale with the configured timeouts (~a third of each)
        # so tightly-tuned test configurations stay tight.
        gather = self.timeouts.gather_ticks
        commit = self.timeouts.commit_ticks
        probe = self.timeouts.probe_interval_ticks
        self._gather_ticks = gather + x % (gather // 3 + 2)
        self._commit_ticks = commit + (x >> 5) % (commit // 3 + 2)
        self._probe_ticks = probe + (x >> 10) % (probe // 4 + 2)

    def _start_gather(
        self,
        extra_procs: Optional[Set[int]] = None,
        extra_fails: Optional[Set[int]] = None,
    ) -> List[Outgoing]:
        self.state = State.GATHER
        self._rejitter()
        self._state_ticks = 0
        self._gather_attempts = 0
        self._mismatch_strikes = {}
        self._silence_strikes = {}
        self._strike_snapshot = {}
        self._join_cooldown = 0
        self._join_dirty = False
        self._proc_set = set(self.ring.members) | {self.pid} | (extra_procs or set())
        # A failure detector (gossip) may pre-seed the fail set so the
        # gather does not burn three silence strikes rediscovering what
        # the detector already knows.  Grounding still applies: a join
        # from a pre-failed process proves it alive and scrubs it.
        self._fail_set = set(extra_fails or ()) - {self.pid}
        self._proc_set |= self._fail_set
        self._joins = {}
        self._commit = None
        self._recovery_union = {}
        self._recovery_done = set()
        self._frustration += 1
        if self._frustration > self._FRUSTRATION_LIMIT:
            # Circuit breaker: this many reconfigurations without a
            # single successful install means the membership race is
            # churning (rival attempts displacing each other, stale
            # fail-set gossip re-splitting the group).  Stop arguing:
            # install a singleton ring, which always succeeds — the
            # self-addressed commit token is handled atomically — and
            # let Operational probes drive a calm re-merge.  The
            # poisonous everyone-failed join is deliberately NOT
            # broadcast; going quiet is the point.
            self._fail_set = self._proc_set - {self.pid}
            view = (frozenset(self._proc_set), frozenset(self._fail_set))
            self._joins = {self.pid: view}
            return self._check_consensus()
        return self._broadcast_join()

    def _broadcast_join(self) -> List[Outgoing]:
        join = JoinMessage(
            sender=self.pid,
            proc_set=frozenset(self._proc_set),
            fail_set=frozenset(self._fail_set),
            ring_seq=self._highest_ring_seq,
        )
        self._joins[self.pid] = (join.proc_set, join.fail_set)
        self._join_dirty = False
        # The cooldown must keep the AGGREGATE join arrival rate at any
        # process strictly below its one-control-message-per-tick drain
        # capacity, counting BOTH broadcast sources: n-1 peers batching
        # behind their cooldowns (n-1 ÷ cooldown) plus their
        # gather-timeout rebroadcasts (n-1 ÷ gather window).  At one
        # tick per member (the old value) the cooldown term alone
        # approaches 1.0 as n grows, so the timeout term tips a
        # 50-process gather into meltdown: the backlog diverges, every
        # process argues with an ever-staler past, and silence strikes
        # fail live members faster than consensus can form.  Two ticks
        # per member holds the cooldown term at 0.5, leaving the other
        # half of the drain budget for timeout rebroadcasts and commit
        # traffic (gather windows are sized >= 2(n-1) ticks at scale).
        self._join_cooldown = max(8, 2 * len(self._proc_set))
        return [Outgoing("ctrl", join)]

    def _queue_join_broadcast(self) -> List[Outgoing]:
        """Broadcast our join now, or mark it for the next cooldown expiry.

        Totem floods join messages on a TIMER.  Rebroadcasting eagerly
        on every view change amplifies each received join into n-1 new
        ones, and under churn that melts the control plane down: the
        join backlog grows faster than one-message-per-step processing
        drains it, so every process reacts to an ever-older past and
        the membership race never settles.  Batching rapid view changes
        behind a short cooldown keeps the join rate strictly below the
        drain rate, which is what lets gathers actually converge.
        """
        view = (frozenset(self._proc_set), frozenset(self._fail_set))
        self._joins[self.pid] = view
        if self._join_cooldown <= 0:
            return self._broadcast_join()
        self._join_dirty = True
        return []

    def _on_probe(self, probe: ProbeMessage) -> List[Outgoing]:
        if self.state is State.OPERATIONAL:
            if self._is_foreign(probe.ring_id, probe.sender):
                return self._start_gather(extra_procs={probe.sender})
            return []
        if self.state is State.GATHER and probe.sender not in self._proc_set:
            self._proc_set.add(probe.sender)
            self._state_ticks = 0
            return self._queue_join_broadcast()
        return []

    # -- external failure detector (gossip) hooks ----------------------

    def notify_peer_alive(self, pid: int) -> List[Outgoing]:
        """Detector evidence that ``pid`` is up and reachable.

        The gossip-layer replacement for the foreign-probe trigger:
        a live process outside our ring means a mergeable component
        exists, so reconfigure toward it.  Evidence about processes
        already in the ring is a no-op.
        """
        if pid == self.pid:
            return []
        if self.state is State.OPERATIONAL:
            if pid not in self.ring:
                return self._start_gather(extra_procs={pid})
            return []
        if self.state is State.GATHER and pid not in self._proc_set:
            self._proc_set.add(pid)
            self._state_ticks = 0
            return self._queue_join_broadcast()
        return []

    def notify_peer_failed(self, pid: int) -> List[Outgoing]:
        """Detector verdict that ``pid`` is dead (suspicion expired).

        Replaces waiting out the token-loss timeout: an Operational
        process reconfigures immediately with ``pid`` pre-seeded into
        the fail set, and a gathering process adds the verdict to its
        view.  The verdict is evidence, not truth — a join from the
        condemned process proves it alive and the grounding rule
        scrubs it from the merged fail set.
        """
        if pid == self.pid:
            return []
        if self.state is State.OPERATIONAL:
            if pid in self.ring and len(self.ring) > 1:
                return self._start_gather(extra_fails={pid})
            return []
        if self.state is State.GATHER and pid not in self._fail_set \
                and pid in self._proc_set:
            self._fail_set.add(pid)
            view = (frozenset(self._proc_set), frozenset(self._fail_set))
            self._joins = {
                sender: sets
                for sender, sets in self._joins.items()
                if sets == view
            }
            out = self._queue_join_broadcast()
            out.extend(self._check_consensus())
            return out
        return []

    def _on_join(self, join: JoinMessage) -> List[Outgoing]:
        if self.state in (State.COMMIT, State.RECOVER):
            # A join carrying no knowledge of our in-flight attempt must
            # not abort it (that way lies livelock: concurrent gathers
            # keep killing each other's commits).  The joiner will see
            # our new ring via probes and trigger a calmer merge.  Only
            # a join that already knows an equal-or-newer ring sequence
            # dooms the attempt.
            # Joins NEVER abort an in-flight attempt.  Either the
            # attempt completes (and probes then merge the joiner in) or
            # its commit timeout expires and the next gather hears the
            # joiner.  A newer attempt displaces an older one through
            # its rotation-1 token, not through join chatter — this is
            # what makes concurrent membership attempts converge instead
            # of endlessly killing each other.
            self._highest_ring_seq = max(self._highest_ring_seq, join.ring_seq)
            return []
        if self.state is not State.GATHER:
            # Any join is evidence that membership must change.
            out = self._start_gather(extra_procs=set(join.proc_set))
            return out + self._merge_join(join)
        return self._merge_join(join)

    def _merge_join(self, join: JoinMessage) -> List[Outgoing]:
        self._highest_ring_seq = max(self._highest_ring_seq, join.ring_seq)
        merged_procs = self._proc_set | set(join.proc_set)
        # Union the fail sets (consensus needs a common view of who is
        # gone) but ground them in reality: a join from a process is
        # proof it is alive and reachable, so it must not stay failed
        # merely by stale gossip — without this, second-hand fail sets
        # circulate forever and fragment the membership into slivers.
        merged_fails = (self._fail_set | set(join.fail_set)) - {self.pid}
        merged_fails.discard(join.sender)
        out: List[Outgoing] = []
        if merged_procs != self._proc_set or merged_fails != self._fail_set:
            # The consensus clock restarts only when the membership
            # GROWS (a new participant genuinely widens the agreement
            # problem).  Fail-set churn must not restart it: stale fail
            # gossip echoing between joins can flip fail sets forever,
            # and if each flip reset the clock the gather timeout — the
            # only source of fresh evidence (strikes, escape hatch) —
            # would never fire.
            if merged_procs != self._proc_set:
                self._state_ticks = 0
            self._proc_set = merged_procs
            self._fail_set = merged_fails
            self._joins = {
                pid: sets
                for pid, sets in self._joins.items()
                if sets == (frozenset(merged_procs), frozenset(merged_fails))
            }
            out.extend(self._queue_join_broadcast())
        self._joins[join.sender] = (join.proc_set, join.fail_set)
        self._silence_strikes.pop(join.sender, None)
        out.extend(self._check_consensus())
        return out

    def _gather_timeout(self) -> List[Outgoing]:
        self._gather_attempts += 1
        if self._gather_attempts > self._MAX_GATHER_ATTEMPTS:
            # Livelock escape: give up on agreement with the others for
            # now and proceed alone; Operational probes will trigger a
            # fresh, calmer merge attempt afterwards.  Like the
            # frustration breaker, the everyone-failed view is NOT
            # broadcast — it would only seed more stale fail gossip.
            self._fail_set = self._proc_set - {self.pid}
            view = (frozenset(self._proc_set), frozenset(self._fail_set))
            self._joins = {self.pid: view}
            return self._check_consensus()
        self._state_ticks = 0
        # Processes that never answered this gather are suspects, but a
        # process deep in a rival COMMIT/RECOVER legitimately ignores
        # join traffic for longer than one gather window — failing it on
        # first silence fragments the membership and the fragments then
        # chase each other forever.  Silence must outlast a full commit
        # attempt (several consecutive timeouts) to count as death.
        silent = set()
        for pid in sorted(
                self._proc_set - set(self._joins) - {self.pid}
                - self._fail_set):
            strikes = self._silence_strikes.get(pid, 0) + 1
            self._silence_strikes[pid] = strikes
            if strikes >= 3:
                silent.add(pid)
        # Processes whose view merely LAGS ours are NOT failed on first
        # sight — proc/fail sets grow monotonically within a gather, so
        # crossing joins converge on their own; failing eager responders
        # is how membership livelocks.  Only persistent stragglers
        # (several consecutive timeouts with a stale view) are failed.
        view = (frozenset(self._proc_set), frozenset(self._fail_set))
        stale = set()
        for pid, sets in self._joins.items():
            if pid == self.pid or pid in self._fail_set:
                continue
            if sets != view and sets == self._strike_snapshot.get(pid):
                # Mismatched AND frozen since the last timeout: the
                # process is stuck on a stale view, not converging.
                strikes = self._mismatch_strikes.get(pid, 0) + 1
                self._mismatch_strikes[pid] = strikes
                if strikes >= 3:
                    stale.add(pid)
            else:
                # Matching, or mismatched but still evolving: progress.
                self._mismatch_strikes[pid] = 0
            self._strike_snapshot[pid] = sets
        self._fail_set |= silent | stale
        return self._broadcast_join() + self._check_consensus()

    def _check_consensus(self) -> List[Outgoing]:
        candidates = sorted(self._proc_set - self._fail_set)
        if not candidates or self.pid not in candidates:
            return []
        view = (frozenset(self._proc_set), frozenset(self._fail_set))
        if any(self._joins.get(pid) != view for pid in candidates):
            return []
        # Consensus.  The representative builds and circulates the
        # commit token; everyone else waits for it.
        if self.pid != candidates[0]:
            return []
        new_ring_id = make_ring_id(self._highest_ring_seq + 1, candidates[0])
        token = CommitToken(
            new_ring_id=new_ring_id,
            members=tuple(candidates),
            rotation=1,
        )
        return self._on_commit_token(token)

    # ------------------------------------------------------------------
    # Commit
    # ------------------------------------------------------------------

    def _my_member_info(self) -> MemberInfo:
        participant = self.participant
        return MemberInfo(
            pid=self.pid,
            old_ring_id=self.ring.ring_id,
            old_aru=participant.local_aru,
            high_seq=participant.window.highest_seq_seen,
            old_members=tuple(self.ring.members),
            old_safe_bound=participant.safe_bound,
            old_delivered_upto=participant.delivered_upto,
        )

    @staticmethod
    def _commit_successor(token: CommitToken, pid: int) -> int:
        members = token.members
        return members[(members.index(pid) + 1) % len(members)]

    def _on_commit_token(self, token: CommitToken) -> List[Outgoing]:
        if self.pid not in token.members:
            return []
        if token.new_ring_id <= self.ring.ring_id and self._installed:
            return []  # stale
        # Concurrent attempts: only the newest (highest ring seq) may
        # displace an in-flight one, otherwise circulating tokens of
        # rival attempts ping-pong processes between commits forever.
        if (
            self.state in (State.COMMIT, State.RECOVER)
            and self._commit is not None
            and token.new_ring_id < self._commit.new_ring_id
        ):
            return []
        # Any observed attempt advances the ring sequence so later
        # attempts can never mint a previously-used ring id.
        self._highest_ring_seq = max(
            self._highest_ring_seq, ring_id_seq(token.new_ring_id)
        )
        successor = self._commit_successor(token, self.pid)
        representative = token.members[0]
        if token.rotation == 1:
            updated = token.with_info(self._my_member_info())
            if self.state is not State.COMMIT:
                # The commit timeout runs from COMMIT entry; attempt
                # churn must not keep resetting it.
                self._state_ticks = 0
            self.state = State.COMMIT
            self._commit = updated
            if successor == representative:
                # The first rotation is complete.  Promote to rotation
                # two; when the representative is ourselves (singleton
                # attempts in particular) handle it ATOMICALLY — queuing
                # it would open a window for a crossing join to abort an
                # attempt that is already decided.
                second = CommitToken(
                    updated.new_ring_id, updated.members, 2, updated.collected
                )
                if successor == self.pid:
                    return self._on_commit_token(second)
                return [Outgoing("ctrl", second, dst=successor)]
            return [Outgoing("ctrl", updated, dst=successor)]
        # Rotation 2: the full table is aboard.  Enter recovery.
        if self.state is State.RECOVER and self._commit is not None and (
            self._commit.new_ring_id == token.new_ring_id
        ):
            return []  # duplicate
        my_info = token.info_for(self.pid)
        if my_info is None or my_info.old_ring_id != self.ring.ring_id:
            # A stale attempt: our collected info no longer matches the
            # ring we are on (we reconfigured since rotation one).
            return []
        self._commit = token
        out: List[Outgoing] = []
        if successor != representative:
            out.append(Outgoing("ctrl", token, dst=successor))
        out.extend(self._enter_recovery(token))
        return out

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def _sharers(self, token: CommitToken) -> List[MemberInfo]:
        """New-ring members that were on OUR old ring (incl. ourselves)."""
        return [
            info
            for info in token.collected
            if info.old_ring_id == self.ring.ring_id
        ]

    def _enter_recovery(self, token: CommitToken) -> List[Outgoing]:
        self.state = State.RECOVER
        self._state_ticks = 0
        # _recovery_union/_recovery_done may already hold early arrivals
        # stashed while we were still in COMMIT — keep them.
        self._recovery_done.add(self.pid)
        sharers = self._sharers(token)
        if sharers:
            floor = min(info.old_delivered_upto for info in sharers)
        else:  # defensive: nobody shares our old ring, not even us
            floor = self.participant.delivered_upto
        out: List[Outgoing] = []
        window = self.participant.window
        for seq in window.held_seqs():
            if seq > floor:
                message = window.get(seq)
                out.append(
                    Outgoing(
                        "ctrl",
                        RecoveryData(self.pid, self.ring.ring_id, message),
                    )
                )
                self._recovery_union[seq] = message
        out.append(
            Outgoing("ctrl", RecoveryComplete(self.pid, token.new_ring_id))
        )
        if self._recovery_done >= set(token.members):
            out.extend(self._finalize_recovery())
        return out

    def _on_recovery_data(self, data: RecoveryData) -> List[Outgoing]:
        if self.state not in (State.COMMIT, State.RECOVER):
            return []
        if data.old_ring_id != self.ring.ring_id:
            return []  # another component's old ring: not our configuration
        self._recovery_union.setdefault(data.message.seq, data.message)
        return []

    def _on_recovery_complete(self, done: RecoveryComplete) -> List[Outgoing]:
        if self.state not in (State.COMMIT, State.RECOVER) or self._commit is None:
            return []
        if done.new_ring_id != self._commit.new_ring_id:
            return []
        self._recovery_done.add(done.sender)
        if (
            self.state is State.RECOVER
            and self._recovery_done >= set(self._commit.members)
        ):
            return self._finalize_recovery()
        return []

    def _finalize_recovery(self) -> List[Outgoing]:
        token = self._commit
        assert token is not None
        sharers = self._sharers(token)
        transitional_members = tuple(sorted(info.pid for info in sharers))
        old_ring_id = self.ring.ring_id
        delivered_upto = self.participant.delivered_upto
        # Every sharer cuts on the same floor: a Safe message at or below
        # ANY sharer's safe bound was held by every old-ring member, so
        # each process moving together delivers it before the
        # transitional configuration (DESIGN.md section 7).
        safe_floor = max([self.participant.safe_bound]
                         + [info.old_safe_bound for info in sharers])

        known = dict(self._recovery_union)
        top = max(known) if known else delivered_upto
        regular_phase: List[AppMessage] = []
        transitional_phase: List[AppMessage] = []
        in_transitional = False
        for seq in range(delivered_upto + 1, top + 1):
            message = known.get(seq)
            if message is None:
                # A hole: nobody continuing holds it.  Everything after
                # it can only get transitional guarantees.
                in_transitional = True
                continue
            is_safe = message.service.requires_stability
            if is_safe and seq > safe_floor:
                in_transitional = True
            entry = AppMessage(
                ring_id=old_ring_id,
                seq=seq,
                sender=message.pid,
                payload=message.payload,
                safe=is_safe,
                transitional=in_transitional,
            )
            (transitional_phase if in_transitional else regular_phase).append(entry)

        self.app_log.extend(regular_phase)
        self.app_log.append(
            ConfigChange(
                Configuration.transitional(old_ring_id, transitional_members)
            )
        )
        self.app_log.extend(transitional_phase)
        new_config = Configuration.regular(token.new_ring_id, token.members)
        self.app_log.append(ConfigChange(new_config))

        # Install the new ring: per-ring protocol state is reset while
        # the unsent application backlog (and cumulative stats) carry
        # over.  rebind_ring also re-keys the priority trigger on the new
        # ring's geometry — size, predecessor and index all change.
        self.ring = Ring.of(token.members, ring_id=token.new_ring_id)
        self.participant.rebind_ring(self.ring)
        self._highest_ring_seq = max(self._highest_ring_seq, ring_id_seq(token.new_ring_id))
        self.state = State.OPERATIONAL
        self._installed = True
        self._ticks_since_token = 0
        self._state_ticks = 0
        self._frustration = 0
        self._commit = None
        self._recovery_union = {}
        self._recovery_done = set()

        if self.pid == token.members[0]:
            # The representative injects the first regular token (to
            # itself: it is the first handler).
            return [
                Outgoing(
                    "token",
                    (self.ring.ring_id, initial_token(self.ring.ring_id)),
                    dst=self.pid,
                )
            ]
        return []
