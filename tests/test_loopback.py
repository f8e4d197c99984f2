"""Integration tests: full rings over the loopback harness."""

import pytest

from repro import LoopbackRing, PriorityMethod, ProtocolConfig, Service
from helpers import (
    FirstTimeLoss,
    assert_same_sequences,
    mixed_workload,
    record_token_handlings,
)


def run_ring(pids, config, plan, **kw):
    ring = LoopbackRing(pids, config, **kw)
    for pid, payload, service in plan:
        ring.submit(pid, payload, service)
    ring.run(max_steps=1_000_000)
    return ring


ALL_CONFIGS = [
    pytest.param(ProtocolConfig.original_ring(), id="original"),
    pytest.param(ProtocolConfig.accelerated(), id="accelerated-m2"),
    pytest.param(
        ProtocolConfig.accelerated(priority_method=PriorityMethod.AGGRESSIVE),
        id="accelerated-m1",
    ),
    pytest.param(ProtocolConfig(accelerated_window=1), id="window-1"),
    pytest.param(ProtocolConfig(accelerated_window=1000), id="window-huge"),
]


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_total_order_no_loss(config):
    pids = list(range(1, 9))
    plan = mixed_workload(seed=1, pids=pids, per_pid=30)
    ring = run_ring(pids, config, plan)
    sequences = {p: ring.delivered_seqs(p) for p in pids}
    assert_same_sequences(sequences)
    assert sequences[1] == list(range(1, len(plan) + 1))


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_total_order_under_loss(config):
    pids = list(range(1, 6))
    plan = mixed_workload(seed=2, pids=pids, per_pid=40)
    loss = FirstTimeLoss(seed=3, pids=pids, p=0.08)
    ring = run_ring(pids, config, plan, drop_data=loss)
    assert loss.drops > 0
    sequences = {p: ring.delivered_seqs(p) for p in pids}
    assert_same_sequences(sequences)
    assert sequences[1] == list(range(1, len(plan) + 1))


@pytest.mark.parametrize("config", ALL_CONFIGS)
def test_fifo_per_sender(config):
    pids = [1, 2, 3]
    plan = mixed_workload(seed=4, pids=pids, per_pid=25, safe_fraction=0.5)
    ring = run_ring(pids, config, plan)
    for viewer in pids:
        payloads = ring.delivered_payloads(viewer)
        for sender in pids:
            mine = [p for p in payloads if p.startswith("p%d-" % sender)]
            indices = [int(p.split("-")[1]) for p in mine]
            assert indices == sorted(indices), "FIFO violated for sender %d" % sender


def test_safe_stability_checked_throughout():
    # The harness asserts, at the moment of every Safe delivery, that all
    # participants hold the message; a full run without StabilityViolation
    # is the test.
    pids = [1, 2, 3, 4]
    plan = mixed_workload(seed=5, pids=pids, per_pid=30, safe_fraction=1.0)
    loss = FirstTimeLoss(seed=6, pids=pids, p=0.1)
    ring = run_ring(pids, ProtocolConfig.accelerated(), plan, drop_data=loss)
    assert ring.delivered_seqs(1) == list(range(1, len(plan) + 1))


def test_garbage_collection_bounds_buffers():
    pids = [1, 2, 3]
    plan = mixed_workload(seed=7, pids=pids, per_pid=100, safe_fraction=0.0)
    ring = run_ring(pids, ProtocolConfig.accelerated(), plan)
    for pid in pids:
        assert len(ring.participants[pid].window) < 100
        assert ring.participants[pid].window.discarded_upto > 0


def test_single_participant_ring():
    ring = LoopbackRing([1], ProtocolConfig.accelerated())
    for i in range(10):
        ring.submit(1, i, Service.SAFE if i % 2 else Service.AGREED)
    ring.run()
    assert ring.delivered_payloads(1) == list(range(10))


def test_two_participant_ring():
    ring = LoopbackRing([1, 2], ProtocolConfig.accelerated())
    ring.submit_many(1, ["a", "b"])
    ring.submit_many(2, ["c", "d"])
    ring.run()
    assert ring.delivered_payloads(1) == ring.delivered_payloads(2)
    assert sorted(ring.delivered_payloads(1)) == ["a", "b", "c", "d"]


def test_token_loss_recovered_by_retransmission():
    dropped = {"count": 0}

    def drop_first_token_to_3(token, dst):
        if dst == 3 and dropped["count"] == 0:
            dropped["count"] += 1
            return True
        return False

    ring = LoopbackRing([1, 2, 3], ProtocolConfig.accelerated(),
                        drop_token=drop_first_token_to_3)
    ring.submit_many(1, list(range(5)))
    ring.start()
    # Run until the ring stalls (token lost en route to 3).
    while ring.step():
        pass
    assert dropped["count"] == 1
    # Participant 2's retransmission timer fires.
    assert not ring.participants[2].progress_since_token_send()
    ring.retransmit_token(2)
    ring.run()
    assert ring.delivered_payloads(3) == list(range(5))


def test_duplicate_token_after_spurious_retransmit_is_harmless():
    ring = LoopbackRing([1, 2, 3], ProtocolConfig.accelerated())
    ring.submit_many(1, list(range(5)))
    ring.run_rounds(2)
    # A spurious timer: retransmit although the token was not lost.
    ring.retransmit_token(1)
    ring.run()
    total_dupes = sum(
        ring.participants[p].stats.duplicate_tokens for p in (1, 2, 3)
    )
    assert total_dupes >= 1
    assert ring.delivered_payloads(2) == list(range(5))


def test_backlog_drains_over_multiple_rounds():
    config = ProtocolConfig(personal_window=5, accelerated_window=2)
    ring = LoopbackRing([1, 2], config)
    ring.submit_many(1, list(range(23)))
    ring.run()
    assert ring.delivered_payloads(2) == list(range(23))
    # 23 messages at 5 per round needs at least 5 handlings.
    assert ring.participants[1].stats.tokens_handled >= 5


def test_flow_control_personal_window_respected():
    config = ProtocolConfig(personal_window=4, accelerated_window=2)
    ring = LoopbackRing([1, 2, 3], config)
    handlings = record_token_handlings(ring)
    for pid in (1, 2, 3):
        ring.submit_many(pid, list(range(40)))
    ring.run()
    assert handlings and max(new for _p, _r, _s, new, _rt in handlings) <= 4


def test_flow_control_global_window_respected():
    config = ProtocolConfig(personal_window=50, global_window=60,
                            accelerated_window=10)
    ring = LoopbackRing([1, 2, 3], config)
    handlings = record_token_handlings(ring)
    for pid in (1, 2, 3):
        ring.submit_many(pid, list(range(100)))
    ring.run()
    assert handlings
    assert all(sent.fcc <= 60 for _p, _r, sent, _n, _rt in handlings)


def consumed_and_logged(plan, pids, config, loss_seed, loss_p=0.08):
    """``plan`` run once with a consumer and once without, both losing
    the same first transmissions: what the consumer got per pid, the
    consumer's ring, and the log-only ring."""
    consumed = {pid: [] for pid in pids}
    rings = []
    for on_deliver in (lambda pid, m: consumed[pid].append(m), None):
        loss = FirstTimeLoss(seed=loss_seed, pids=pids, p=loss_p)
        rings.append(run_ring(pids, config, plan, on_deliver=on_deliver,
                              drop_data=loss))
        assert loss.drops > 0
    return consumed, rings[0], rings[1]


def test_consumer_takes_every_delivery_once_and_the_log_stays_empty():
    pids = [1, 2, 3, 4]
    plan = mixed_workload(seed=7, pids=pids, per_pid=25, safe_fraction=0.5)
    consumed, ring, _logged = consumed_and_logged(
        plan, pids, ProtocolConfig.accelerated(), loss_seed=4)
    for pid in pids:
        assert [m.seq for m in consumed[pid]] == list(range(1, len(plan) + 1))
        assert ring.delivered[pid] == []
    assert ring._total_delivered == len(pids) * len(plan)


def test_run_settles_on_safe_traffic_under_a_consumer():
    # run()'s idle rule counts deliveries, not log entries.  This late
    # first-transmission drop leaves Safe messages waiting on the
    # two-rotation rule after the last data moved (test_properties'
    # regression example); without the count, run() parks them.
    pids = [1, 2, 3, 4]
    plan = [(pid, (pid, i), Service.SAFE if i % 4 == 0 else Service.AGREED)
            for pid in pids for i in range(15)]
    consumed, _ring, logged = consumed_and_logged(
        plan, pids, ProtocolConfig(accelerated_window=0),
        loss_seed=9968, loss_p=0.015625)
    for pid in pids:
        assert len(consumed[pid]) == len(logged.delivered[pid]) == len(plan)


def test_without_a_consumer_the_log_holds_what_a_consumer_gets():
    pids = [1, 2, 3, 4]
    plan = mixed_workload(seed=9, pids=pids, per_pid=25, safe_fraction=0.5)
    consumed, _ring, logged = consumed_and_logged(
        plan, pids, ProtocolConfig.accelerated(), loss_seed=6)
    for pid in pids:
        assert [(m.seq, m.payload) for m in logged.delivered[pid]] == [
            (m.seq, m.payload) for m in consumed[pid]]
    assert logged._total_delivered == sum(map(len, logged.delivered.values()))
