"""SWIM gossip detector: unit coverage plus chaos fuzzing.

The detector is sans-IO, so these tests drive it with a tiny in-memory
mesh: tick every detector, carry ``(dst, message)`` sends through a
queue, collect the controller-facing event stream.  The hypothesis
state machine at the bottom subjects the message queue to loss,
duplication and reordering and asserts the headline safety property:
a live node that can refute its own suspicion is never *permanently*
confirmed dead anywhere.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.membership.gossip import (
    ALIVE,
    DEAD,
    MAX_PIGGYBACK,
    SUSPECT,
    GossipDetector,
    PeerAlive,
    PeerConfirm,
    PeerSuspect,
)
from repro.membership.messages import (
    GossipAck,
    GossipPing,
    GossipPingReq,
    GossipUpdate,
)


class Mesh:
    """Lossless in-order transport between detectors (unless told not
    to be): the deterministic scaffolding for the unit tests."""

    def __init__(self, pids, seed=0, drop=None):
        self.detectors = {pid: GossipDetector(pid, seed=seed) for pid in pids}
        for detector in self.detectors.values():
            detector.seed_members(pids)
        self.queue = []  # (dst, src, message)
        self.events = {pid: [] for pid in pids}
        self.down = set()
        #: Optional ``drop(dst, src, message) -> bool`` link filter.
        self.drop = drop

    def _emit(self, src, sends):
        for dst, message in sends:
            if self.drop is not None and self.drop(dst, src, message):
                continue
            self.queue.append((dst, src, message))

    def tick_all(self):
        for pid in sorted(self.detectors):
            if pid in self.down:
                continue
            sends, events = self.detectors[pid].tick()
            self.events[pid].extend(events)
            self._emit(pid, sends)

    def deliver_all(self):
        while self.queue:
            dst, src, message = self.queue.pop(0)
            if dst in self.down:
                continue
            sends, events = self.detectors[dst].handle(message, src)
            self.events[dst].extend(events)
            self._emit(dst, sends)

    def step(self, count=1):
        for _i in range(count):
            self.tick_all()
            self.deliver_all()


def test_quiet_cluster_never_suspects():
    mesh = Mesh(range(3))
    mesh.step(300)
    for pid, events in mesh.events.items():
        assert not any(isinstance(e, (PeerSuspect, PeerConfirm))
                       for e in events), (pid, events)
    for detector in mesh.detectors.values():
        assert all(status == ALIVE
                   for _inc, status in detector.members().values())


def test_silent_peer_is_suspected_then_confirmed():
    mesh = Mesh(range(4))
    mesh.step(50)
    mesh.down.add(3)
    mesh.step(400)
    for pid in (0, 1, 2):
        kinds = [type(e) for e in mesh.events[pid]
                 if getattr(e, "pid", None) == 3]
        assert PeerSuspect in kinds
        assert PeerConfirm in kinds
        # Suspicion precedes confirmation.
        assert kinds.index(PeerSuspect) < kinds.index(PeerConfirm)
        assert mesh.detectors[pid].status_of(3) == DEAD


def test_own_suspicion_is_refuted_with_higher_incarnation():
    detector = GossipDetector(0, seed=1)
    detector.seed_members(range(3))
    ping = GossipPing(1, 0, probe_id=7,
                      updates=(GossipUpdate(0, 0, SUSPECT),))
    sends, _events = detector.handle(ping, 1)
    assert detector.incarnation == 1
    assert detector.false_suspicions_refuted == 1
    ((dst, ack),) = sends
    assert dst == 1 and isinstance(ack, GossipAck)
    # The refutation rides out on the very first reply.
    assert GossipUpdate(0, 1, ALIVE) in ack.updates


def test_indirect_probe_covers_a_bad_direct_link():
    # Node 0 cannot reach node 2 directly, but relayers can: the
    # ping-req path must keep 0 from ever suspecting 2.
    def drop(dst, src, message):
        return (src == 0 and dst == 2 and isinstance(message, GossipPing))

    mesh = Mesh(range(3), drop=drop)
    mesh.step(400)
    assert mesh.detectors[0].status_of(2) == ALIVE
    assert not any(getattr(e, "pid", None) == 2
                   for e in mesh.events[0]
                   if isinstance(e, (PeerSuspect, PeerConfirm)))
    # The indirect machinery actually fired.
    assert any(isinstance(m, GossipPingReq)
               for _dst, _src, m in _drain_history(mesh))


def _drain_history(mesh):
    # Re-run a fresh copy of the same scenario capturing traffic: the
    # Mesh consumes its queue, so historical traffic isn't retained.
    # Instead replay a few steps while intercepting sends.
    seen = []
    original_emit = mesh._emit

    def recording_emit(src, sends):
        for dst, message in sends:
            seen.append((dst, src, message))
        original_emit(src, sends)

    mesh._emit = recording_emit
    mesh.step(100)
    mesh._emit = original_emit
    return seen


def test_dead_member_is_resurrected_by_fresher_incarnation():
    detector = GossipDetector(0, seed=2)
    detector.seed_members([0, 1])
    _sends, events = detector.handle(
        GossipPing(1, 0, 1, updates=(GossipUpdate(1, 0, DEAD),)), 1
    )
    assert detector.status_of(1) == DEAD
    assert any(isinstance(e, PeerConfirm) and e.pid == 1 for e in events)
    # A strictly-higher-incarnation alive beats the dead record.
    _sends, events = detector.handle(GossipPing(1, 1, 2), 1)
    assert detector.status_of(1) == ALIVE
    assert any(isinstance(e, PeerAlive) and e.pid == 1 and e.incarnation == 1
               for e in events)


def test_rejoin_by_refutation_after_amnesiac_restart():
    # The cluster remembers pid 5 dead at incarnation 3; a restarted,
    # amnesiac pid 5 (incarnation 0) must learn its own dead record
    # from an ack and gossip itself back with incarnation 4.
    veteran = GossipDetector(0, seed=3)
    veteran.seed_members([0, 5])
    veteran.handle(
        GossipPing(1, 0, 1, updates=(GossipUpdate(5, 3, DEAD),)), 1
    )
    assert veteran.status_of(5) == DEAD

    reborn = GossipDetector(5, seed=4)
    reborn.seed_members([0, 5])
    alive_again = False
    for _tick in range(200):
        sends, _events = reborn.tick()
        for dst, message in sends:
            if dst != 0:
                continue
            replies, _events = veteran.handle(message, 5)
            for rdst, reply in replies:
                # The veteran may also relay probes toward third
                # parties it heard of; only route what is for us.
                if rdst == 5:
                    reborn.handle(reply, 0)
        if veteran.status_of(5) == ALIVE:
            alive_again = True
            break
    assert alive_again
    assert reborn.incarnation == 4
    assert veteran.members()[5] == (4, ALIVE)


def test_piggyback_is_bounded_and_buffer_drains():
    detector = GossipDetector(0, seed=5)
    detector.seed_members(range(30))
    updates = tuple(
        GossipUpdate(pid, 1, ALIVE) for pid in range(1, 21)
    )
    sends, _events = detector.handle(GossipPing(1, 0, 1, updates), 1)
    ((_dst, ack),) = sends
    assert len(ack.updates) <= MAX_PIGGYBACK
    # Each selection charges a retransmission; the buffer must drain.
    for probe_id in range(2, 200):
        detector.handle(GossipPing(1, 0, probe_id), 1)
    sends, _events = detector.handle(GossipPing(1, 0, 1000), 1)
    ((_dst, ack),) = sends
    assert ack.updates == ()


def test_unknown_message_type_is_rejected():
    detector = GossipDetector(0)
    with pytest.raises(TypeError):
        detector.handle(object(), 1)


class GossipChaos(RuleBasedStateMachine):
    """Loss, duplication and reordering never permanently kill a live,
    refuting node.

    Every node stays up and processes whatever the chaos delivers; at
    teardown the transport turns reliable for long enough that every
    suspicion either expires into a confirm and is refuted, or is
    cleared.  No detector may end believing any (live) peer is DEAD.
    """

    N = 4

    def __init__(self):
        super().__init__()
        self.mesh = Mesh(range(self.N), seed=7)

    @initialize()
    def warm_up(self):
        self.mesh.step(20)

    @rule(pid=st.integers(min_value=0, max_value=N - 1))
    def tick_one(self, pid):
        detector = self.mesh.detectors[pid]
        sends, events = detector.tick()
        self.mesh.events[pid].extend(events)
        self.mesh._emit(pid, sends)

    @rule(index=st.integers(min_value=0, max_value=200))
    def deliver_one(self, index):
        if not self.mesh.queue:
            return
        dst, src, message = self.mesh.queue.pop(index % len(self.mesh.queue))
        sends, events = self.mesh.detectors[dst].handle(message, src)
        self.mesh.events[dst].extend(events)
        self.mesh._emit(dst, sends)

    @rule(index=st.integers(min_value=0, max_value=200))
    def drop_one(self, index):
        if self.mesh.queue:
            self.mesh.queue.pop(index % len(self.mesh.queue))

    @rule(index=st.integers(min_value=0, max_value=200))
    def duplicate_one(self, index):
        if self.mesh.queue:
            self.mesh.queue.append(
                self.mesh.queue[index % len(self.mesh.queue)]
            )

    @rule()
    def reorder_tail(self):
        if len(self.mesh.queue) >= 2:
            self.mesh.queue.reverse()

    def teardown(self):
        # Reliable phase: suspicion_ticks=60, ping_interval=10 — 800
        # reliable ticks is enough for every stale suspicion to expire
        # and every refutation to propagate by direct contact.
        self.mesh.step(800)
        for pid, detector in self.mesh.detectors.items():
            for peer, (_inc, status) in detector.members().items():
                assert status != DEAD, (
                    "detector %d falsely confirmed live node %d: %r"
                    % (pid, peer, detector.members())
                )


GossipChaos.TestCase.settings = settings(
    max_examples=15, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestGossipChaos = GossipChaos.TestCase
