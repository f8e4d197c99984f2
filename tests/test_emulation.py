"""Integration tests: the protocol over real UDP sockets on localhost."""

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
        pytest.param(ProtocolConfig.accelerated(accelerated_window=10), id="accelerated"),
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

    config = ProtocolConfig.accelerated(token_retransmit_timeout_s=0.02,
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
