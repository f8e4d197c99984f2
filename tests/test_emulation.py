"""Integration tests: the protocol over real UDP sockets on localhost."""

import os
import queue
import sys
import threading
import time

import pytest

from repro.core import ProtocolConfig, Service
from repro.emulation import EmulatedRing


def payloads_of(messages):
    return [m.payload for m in messages]


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(ProtocolConfig(accelerated_window=10), id="accelerated"),
        pytest.param(ProtocolConfig.original_ring(), id="original"),
    ],
)
def test_total_order_over_real_sockets(config):
    with EmulatedRing(4, config) as ring:
        for pid in range(4):
            for i in range(25):
                ring.submit(pid, (pid, i))
        collected = ring.collect_deliveries(expected_per_node=100, timeout_s=20.0)
    sequences = {pid: [m.seq for m in msgs] for pid, msgs in collected.items()}
    for pid, seqs in sequences.items():
        assert seqs[:100] == list(range(1, 101)), "gaps at node %d" % pid
    first = payloads_of(collected[0])[:100]
    for pid in (1, 2, 3):
        assert payloads_of(collected[pid])[:100] == first


def test_safe_delivery_over_real_sockets():
    with EmulatedRing(3) as ring:
        for pid in range(3):
            ring.submit(pid, ("safe", pid), Service.SAFE)
        collected = ring.collect_deliveries(expected_per_node=3, timeout_s=20.0)
    orders = [payloads_of(collected[pid])[:3] for pid in range(3)]
    assert orders[0] == orders[1] == orders[2]
    assert sorted(orders[0]) == [("safe", 0), ("safe", 1), ("safe", 2)]


def test_fifo_over_real_sockets():
    with EmulatedRing(3) as ring:
        for i in range(30):
            ring.submit(0, ("seq", i))
        collected = ring.collect_deliveries(expected_per_node=30, timeout_s=20.0)
    for pid in range(3):
        mine = [p for p in payloads_of(collected[pid]) if p[0] == "seq"][:30]
        assert mine == [("seq", i) for i in range(30)]


def test_recovery_from_injected_send_loss():
    # Drop ~10% of data sends (first transmissions only) and rely on the
    # retransmission machinery over real sockets.
    lock = threading.Lock()
    dropped = set()

    def loss(kind, obj, dst):
        if kind != "data":
            return False
        key = (getattr(obj, "seq", None), dst)
        if key[0] is None or key[0] % 9 != 0:
            return False
        with lock:
            if key in dropped:
                return False
            dropped.add(key)
            return True

    with EmulatedRing(3, loss_rule=loss) as ring:
        for pid in range(3):
            for i in range(20):
                ring.submit(pid, (pid, i))
        collected = ring.collect_deliveries(expected_per_node=60, timeout_s=30.0)
    assert dropped, "loss rule never fired"
    first = payloads_of(collected[0])[:60]
    for pid in (1, 2):
        assert payloads_of(collected[pid])[:60] == first


def test_token_loss_recovered_by_wallclock_timer():
    lock = threading.Lock()
    state = {"dropped": False}

    def loss(kind, obj, dst):
        if kind != "token":
            return False
        with lock:
            # Drop a mid-stream token exactly once.
            if not state["dropped"] and getattr(obj, "hop", 0) == 7:
                state["dropped"] = True
                return True
        return False

    config = ProtocolConfig(token_retransmit_timeout_s=0.02,
                            token_retransmit_limit=100)
    with EmulatedRing(3, config, loss_rule=loss) as ring:
        for pid in range(3):
            for i in range(10):
                ring.submit(pid, (pid, i))
        # Generous deadline: under a fully loaded test host the node
        # threads may be scheduled sparsely.
        collected = ring.collect_deliveries(expected_per_node=30, timeout_s=60.0)
        # All thirty messages are out by hop 3, so delivery can finish
        # before the hop-7 token is dropped and its 20 ms timer fires:
        # wait for the resend instead of sampling the counter at once.
        deadline = time.monotonic() + 30.0
        resent = 0
        while not resent and time.monotonic() < deadline:
            time.sleep(0.005)
            resent = sum(node.tokens_resent for node in ring.nodes.values())
    assert state["dropped"]
    assert resent >= 1
    first = payloads_of(collected[0])[:30]
    assert payloads_of(collected[1])[:30] == first


def test_single_node_ring_over_sockets():
    with EmulatedRing(1) as ring:
        for i in range(10):
            ring.submit(0, i)
        collected = ring.collect_deliveries(expected_per_node=10, timeout_s=10.0)
    assert payloads_of(collected[0])[:10] == list(range(10))


def test_dead_node_thread_is_raised_not_timed_out():
    # 70 KB encodes past MAX_DATAGRAM: the send raises inside node 1's
    # thread, which dies holding the token.  That must surface as the
    # cause, at once, not as a delivery timeout 30 s later.
    from repro.emulation import OversizedDatagramError

    started = time.monotonic()
    with pytest.raises(RuntimeError, match="node 1 died") as excinfo:
        with EmulatedRing(3) as ring:
            ring.submit(1, b"x" * 70_000)
            ring.collect_deliveries(expected_per_node=1, timeout_s=30.0)
    assert time.monotonic() - started < 15.0
    assert isinstance(excinfo.value.__cause__, OversizedDatagramError)
    assert ring.nodes[1].error is excinfo.value.__cause__
    assert not ring.thread.is_alive()
    ring.stop()  # raised once already: stopping again stays quiet


def test_stop_raises_what_killed_a_node():
    ring = EmulatedRing(3).start()
    ring.submit(1, b"x" * 70_000)
    ring.thread.join(timeout=10.0)
    assert not ring.thread.is_alive()
    with pytest.raises(RuntimeError, match="node 1 died"):
        ring.stop()
    assert not ring.thread.is_alive()


def test_stop_on_a_ring_that_never_started_closes_its_sockets():
    # No loop ran, so none closed the transports on the way out.
    ring = EmulatedRing(3)
    ring.stop()
    assert ring.thread is None
    for node in ring.nodes.values():
        transport = node.transport
        assert transport._data_sock.fileno() == -1
        assert transport._token_sock.fileno() == -1


def test_delivered_queue_surface():
    # What perf/udp.py reads: the observer's get(timeout=...), then
    # get_nowait() until queue.Empty, and drain_delivered() elsewhere.
    with EmulatedRing(3) as ring:
        for i in range(30):
            ring.submit(i % 3, i)
        observer = ring.nodes[0]
        taken = [observer.delivered.get(timeout=10.0) for _ in range(10)]
        deadline = time.monotonic() + 10.0
        while len(taken) < 30 and time.monotonic() < deadline:
            taken += observer.drain_delivered()
            time.sleep(0.002)
        with pytest.raises(queue.Empty):
            observer.delivered.get_nowait()
        assert observer.drain_delivered() == []
    assert [m.seq for m in taken] == list(range(1, 31))


def test_no_python_level_synchronisation_per_message():
    # Every hand-off between the submitter and the ring's thread is a C
    # operation: over 300 ordered messages, no frame of queue.py or
    # threading.py runs in any thread, the blocked submitter included.
    watched = ("queue.py", "threading.py")
    counting = [False]
    calls = [0]

    def hook(frame, event, _arg):
        if (event == "call" and counting[0]
                and os.path.basename(frame.f_code.co_filename) in watched):
            calls[0] += 1

    # A call census may be profiling this very run: put its hooks back.
    previous_sys, previous_threads = sys.getprofile(), threading.getprofile()
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        with EmulatedRing(3) as ring:
            observer = ring.nodes[0].delivered
            for i in range(30):  # warm-up: lazy imports, first rounds
                ring.submit(i % 3, ("warm", i))
            for _ in range(30):
                observer.get(timeout=10.0)
            counting[0] = True
            for batch in range(15):
                for i in range(20):
                    ident = batch * 20 + i
                    ring.submit(ident % 3, ident,
                                Service.SAFE if ident % 2 else Service.AGREED)
                for _ in range(20):
                    observer.get(timeout=10.0)
            counting[0] = False
    finally:
        sys.setprofile(previous_sys)
        threading.setprofile(previous_threads)
    assert calls[0] == 0


# -- the ring's one thread ---------------------------------------------------

def test_a_started_ring_is_one_thread():
    # Every node's pass runs on the ring's one thread: start() adds
    # exactly one thread, stop() takes it away again.
    seen = {}

    class Watched:
        def __init__(self, pid, target):
            self._pid, self._target = pid, target

        def on_token(self, token):
            seen.setdefault(self._pid, set()).add(threading.get_ident())
            return self._target.on_token(token)

        def on_data(self, message):
            seen.setdefault(self._pid, set()).add(threading.get_ident())
            return self._target.on_data(message)

        def __getattr__(self, name):
            return getattr(self._target, name)

    ring = EmulatedRing(3)
    for pid, node in ring.nodes.items():
        node.participant = Watched(pid, node.participant)
    before = set(threading.enumerate())
    ring.start()
    try:
        started = set(threading.enumerate()) - before
        assert len(started) == 1
        assert threading.active_count() == len(before) + 1
        for i in range(30):
            ring.submit(i % 3, i)
        ring.collect_deliveries(expected_per_node=30, timeout_s=20.0)
    finally:
        ring.stop()
    assert threading.active_count() == len(before)
    (loop,) = started
    assert sorted(seen) == [0, 1, 2]
    assert all(idents == {loop.ident} for idents in seen.values())


def test_a_node_that_raises_stops_the_whole_ring_cleanly():
    # The thread is shared: what node 1's pass raises ends every node.
    # It is raised once, naming node 1; a later stop() neither hangs nor
    # raises again, and every node's two sockets are closed.
    ring = EmulatedRing(3).start()
    ring.submit(1, b"x" * 70_000)  # encodes past MAX_DATAGRAM
    with pytest.raises(RuntimeError, match="node 1 died"):
        ring.collect_deliveries(expected_per_node=1, timeout_s=30.0)
    ring.thread.join(timeout=10.0)
    assert not ring.thread.is_alive()
    assert [pid for pid, node in ring.nodes.items()
            if node.error is not None] == [1]
    started = time.monotonic()
    ring.stop()  # raised once already: quiet now
    ring.stop()
    assert time.monotonic() - started < 1.0
    for node in ring.nodes.values():
        for sock in node.transport.sockets:
            assert sock.fileno() == -1


# -- the loop's read rule, over a scripted transport (no sockets) -------------

class ScriptedTransport:
    """Stands in for one node's UdpTransport: canned polls, recorded sends.

    It also stands in for the ``select`` the ring's loop makes once per
    pass: each call is one poll of the script, whose entries are
    ``(data, tokens)`` or a callable returning one (called with the
    1-based poll number) — what that select finds on this node's two
    sockets.  When the script runs out the ring is stopped, so
    ``ring.run()`` returns in the calling thread.
    """

    def __init__(self, script, log, ring):
        self.script = list(script)
        self.log = log
        self.ring = ring
        self.polls = 0
        self.ring_id = 0
        self.sockets = (object(), object())  # (data, token), never read
        self._found = {}

    def select(self, _readable, _writable, _errors, timeout_s):
        self.polls += 1
        self.log.append(("poll", timeout_s))
        if self.polls > len(self.script):
            self.ring._stop_flag = True
            return [], [], []
        entry = self.script[self.polls - 1]
        found = entry(self.polls) if callable(entry) else entry
        self._found = dict(zip(self.sockets, found))
        return [sock for sock in self.sockets if self._found[sock]], [], []

    def drain(self, sock):
        return list(self._found.pop(sock))

    def send_data(self, message):
        self.log.append(("send_data", message))

    def send_token(self, token, dst):
        self.log.append(("send_token", token, dst))

    def close(self):
        self.log.append(("close",))


class RecordingParticipant:
    """Forwards to a Participant, logging each input it is handed."""

    def __init__(self, target, log):
        self._target = target
        self._log = log

    def on_data(self, message):
        self._log.append(("on_data", message))
        return self._target.on_data(message)

    def on_token(self, token):
        self._log.append(("on_token", token))
        return self._target.on_token(token)

    def __getattr__(self, name):
        return getattr(self._target, name)


def scripted_ring(pid, n_nodes, config, script, monkeypatch):
    """An unstarted ring whose node ``pid`` runs over a ScriptedTransport
    -> (ring, node, log).  The other nodes keep their sockets, which the
    scripted select never reports, so they idle through every pass."""
    import types

    from repro.emulation import cluster

    ring = EmulatedRing(n_nodes, config)
    node = ring.nodes[pid]
    node.transport.close()
    log = []
    transport = ScriptedTransport(script, log, ring)
    node.transport = transport
    node.participant = RecordingParticipant(node.participant, log)
    monkeypatch.setattr(cluster, "select",
                        types.SimpleNamespace(select=transport.select))
    return ring, node, log


def first_round_of_leader(config, n_nodes, n_messages):
    """What node 0 puts on the wire handling the first token with
    ``n_messages`` submitted -> (data in send order, the token)."""
    from repro.core import Participant, Ring, initial_token

    ring = Ring.of(list(range(n_nodes)))
    leader = Participant(0, ring, config)
    for i in range(n_messages):
        leader.submit(("m", i))
    handled = leader.on_token(initial_token(ring.ring_id))
    data = handled.pre + handled.post
    assert len(data) == n_messages
    return data, handled.token


def kinds(log):
    return [entry[0] for entry in log]


def test_loop_handles_a_drained_batch_without_polling_again(monkeypatch):
    # (a) 40 datagrams out of one poll: no select between them.
    config = ProtocolConfig(accelerated_window=0)
    data, token = first_round_of_leader(config, 3, 40)
    ring, node, log = scripted_ring(1, 3, config,
                                    [(data, []), ([], [token])], monkeypatch)
    ring.run()
    assert node.error is None
    inputs = [e for e in log if e[0] in ("poll", "on_data", "on_token")]
    assert kinds(inputs) == (["poll"] + ["on_data"] * 40
                             + ["poll", "on_token", "poll"])
    assert [e[1] for e in inputs[1:41]] == data
    assert len(node.drain_delivered()) == 40
    # Our token went on to node 2, through the transport.
    assert [e[2] for e in log if e[0] == "send_token"] == [2]


def test_loop_polls_at_once_when_the_token_gains_priority_unqueued(
        monkeypatch):
    # (b) The predecessor's first post-token datagram raises the token's
    # priority; none is queued, so the token may be in the socket: the
    # very next action is a poll, and the token it returns is read
    # before the data still queued.
    config = ProtocolConfig(accelerated_window=3)
    data, token = first_round_of_leader(config, 3, 6)
    pre = [m for m in data if not m.sent_after_token]
    post = [m for m in data if m.sent_after_token]
    assert pre and len(post) == 3 and data == pre + post
    ring, node, log = scripted_ring(1, 3, config,
                                    [(data, []), ([], [token])], monkeypatch)
    ring.run()
    assert node.error is None
    inputs = [e for e in log if e[0] in ("poll", "on_data", "on_token")]
    raised = 1 + len(pre)  # index of the first post-token on_data
    assert inputs[raised] == ("on_data", post[0])
    assert inputs[raised + 1] == ("poll", 0.0)
    assert inputs[raised + 2] == ("on_token", token)
    assert inputs[raised + 3:raised + 5] == [("on_data", post[1]),
                                             ("on_data", post[2])]
    assert kinds(inputs[:raised]) == ["poll"] + ["on_data"] * len(pre)


def test_loop_reads_a_low_priority_token_only_after_a_poll_found_no_data(
        monkeypatch):
    # (c) Original Ring: data never raises the token's priority, so a
    # token queued beside data waits until the sockets hold no data.
    config = ProtocolConfig(accelerated_window=0)
    data, token = first_round_of_leader(config, 3, 4)
    ring, node, log = scripted_ring(
        1, 3, config, [(data[:3], [token]), (data[3:], []), ([], [])],
        monkeypatch)
    ring.run()
    assert node.error is None
    inputs = [e for e in log if e[0] in ("poll", "on_data", "on_token")]
    assert kinds(inputs) == ["poll", "on_data", "on_data", "on_data",
                             "poll", "on_data", "poll", "on_token", "poll"]
    # Never a blocking poll while the token waits in the inbox.
    assert [e[1] for e in inputs if e[0] == "poll"][1:3] == [0.0, 0.0]


def test_single_node_pass_ends_at_the_self_addressed_token(monkeypatch):
    # (d) On a 1-node ring the token is always queued; each pass must
    # hand it on once and return to submissions and the stop flag.
    def submit_on_third(poll_number):
        node.submit("late")
        return [], []

    script = [([], [])] * 2 + [submit_on_third] + [([], [])] * 3
    ring, node, log = scripted_ring(0, 1, ProtocolConfig(), script,
                                    monkeypatch)
    ring.start()  # a thread, so an unbounded pass fails instead of hanging
    ring.thread.join(timeout=10.0)
    assert not ring.thread.is_alive()
    assert node.error is None
    # One token handling per pass, never a blocking poll while the token
    # is queued; the stop set inside poll 7 ended the loop after its pass.
    inputs = [e for e in log if e[0] in ("poll", "on_token")]
    assert kinds(inputs) == ["poll", "on_token"] * 7
    assert all(e[1] == 0.0 for e in inputs if e[0] == "poll")
    assert log[-1] == ("close",)
    # Submitted during poll 3, picked up at the top of pass 4.
    assert [m.payload for m in node.drain_delivered()] == ["late"]


def test_armed_resend_fires_in_the_pass_after_its_deadline(monkeypatch):
    # (e) The timer is checked once per pass, against a clock the script
    # advances: no resend before the deadline, one right after it.
    from repro.emulation import cluster as cluster_module
    from repro.emulation import node as node_module

    class Clock:
        now = 100.0

        @classmethod
        def monotonic(cls):
            return cls.now

    monkeypatch.setattr(node_module, "time", Clock)
    monkeypatch.setattr(cluster_module, "time", Clock)
    config = ProtocolConfig(accelerated_window=0,
                            token_retransmit_timeout_s=0.010)
    _data, token = first_round_of_leader(config, 3, 0)

    def advance(by):
        def poll(_number):
            Clock.now += by
            return [], []
        return poll

    ring, node, log = scripted_ring(
        1, 3, config, [([], [token]), advance(0.004), advance(0.007)],
        monkeypatch)
    ring.run()
    assert node.error is None
    assert kinds(log) == ["poll", "on_token", "send_token",
                          "poll", "poll", "send_token", "poll", "close"]
    first, resent = [e for e in log if e[0] == "send_token"]
    assert resent == first and node.tokens_resent == 1
