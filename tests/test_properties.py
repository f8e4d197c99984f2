"""Property-based tests (hypothesis) on protocol invariants.

Random workloads, ring sizes, window configurations and loss patterns;
the invariants of DESIGN.md Section 5 must hold for every combination.
"""

import random

from hypothesis import example, given, settings, HealthCheck
from hypothesis import strategies as st

from repro import LoopbackRing, PriorityMethod, ProtocolConfig, Service
from repro.core import ReceiveWindow, Service as Svc
from repro.core.messages import DataMessage
from helpers import FirstTimeLoss, assert_same_sequences, record_token_handlings


# ---------------------------------------------------------------------------
# ReceiveWindow properties
# ---------------------------------------------------------------------------

@given(st.lists(st.integers(min_value=1, max_value=60), max_size=120))
def test_buffer_aru_is_longest_prefix(seqs):
    window = ReceiveWindow()
    for seq in seqs:
        window.receive(DataMessage(seq=seq, pid=1, round=1, service=Svc.AGREED))
    present = set(seqs)
    expected = 0
    while expected + 1 in present:
        expected += 1
    assert window.local_aru == expected


@given(
    st.sets(st.integers(min_value=1, max_value=50)),
    st.integers(min_value=0, max_value=50),
)
def test_buffer_missing_between_is_complement(present, hi):
    window = ReceiveWindow()
    for seq in present:
        window.receive(DataMessage(seq=seq, pid=1, round=1, service=Svc.AGREED))
    lo = window.local_aru
    missing = window.missing_between(lo, hi)
    assert missing == [s for s in range(lo + 1, hi + 1) if s not in present]


# ---------------------------------------------------------------------------
# Whole-ring properties
# ---------------------------------------------------------------------------

ring_configs = st.builds(
    ProtocolConfig,
    personal_window=st.integers(min_value=1, max_value=30),
    global_window=st.integers(min_value=30, max_value=200),
    accelerated_window=st.integers(min_value=0, max_value=40),
    priority_method=st.sampled_from(list(PriorityMethod)),
)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    config=ring_configs,
    n=st.integers(min_value=1, max_value=7),
    per_pid=st.integers(min_value=0, max_value=25),
    safe_fraction=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_total_order_and_stability_any_config(config, n, per_pid, safe_fraction, seed):
    pids = list(range(1, n + 1))
    rng = random.Random(seed)
    ring = LoopbackRing(pids, config)  # stability checked inside harness
    total = 0
    for pid in pids:
        for i in range(per_pid):
            service = Service.SAFE if rng.random() < safe_fraction else Service.AGREED
            ring.submit(pid, (pid, i), service)
            total += 1
    ring.run(max_steps=2_000_000)
    sequences = {p: ring.delivered_seqs(p) for p in pids}
    assert_same_sequences(sequences)
    assert sequences[pids[0]] == list(range(1, total + 1))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    accel=st.integers(min_value=0, max_value=25),
    method=st.sampled_from(list(PriorityMethod)),
    loss_seed=st.integers(min_value=0, max_value=10_000),
    loss_p=st.floats(min_value=0.0, max_value=0.25),
)
# Regression: a single first-transmission drop late in the run used to
# park the LoopbackRing one token rotation short of the Safe
# two-rotation stability rule — three participants stalled with Safe
# messages buffered but undelivered (run()'s idle heuristic now resets
# on delivery progress).
@example(accel=0, method=PriorityMethod.CONSERVATIVE,
         loss_seed=9968, loss_p=0.015625)
def test_total_order_under_random_loss(accel, method, loss_seed, loss_p):
    pids = [1, 2, 3, 4]
    config = ProtocolConfig(accelerated_window=accel, priority_method=method)
    loss = FirstTimeLoss(loss_seed, pids=pids, p=loss_p)
    ring = LoopbackRing(pids, config, drop_data=loss)
    for pid in pids:
        for i in range(15):
            ring.submit(pid, (pid, i), Service.SAFE if i % 4 == 0 else Service.AGREED)
    ring.run(max_steps=2_000_000)
    sequences = {p: ring.delivered_seqs(p) for p in pids}
    assert_same_sequences(sequences)
    assert sequences[1] == list(range(1, 61))


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    accel=st.integers(min_value=0, max_value=30),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_fifo_property_random(accel, seed):
    pids = [1, 2, 3]
    rng = random.Random(seed)
    ring = LoopbackRing(pids, ProtocolConfig(accelerated_window=accel))
    counts = {pid: 0 for pid in pids}
    for _ in range(60):
        pid = rng.choice(pids)
        ring.submit(pid, (pid, counts[pid]), Service.AGREED)
        counts[pid] += 1
    ring.run(max_steps=2_000_000)
    for viewer in pids:
        for sender in pids:
            ordered = [i for (p, i) in ring.delivered_payloads(viewer) if p == sender]
            assert ordered == sorted(ordered)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    accel=st.integers(min_value=0, max_value=20),
)
def test_no_retransmission_of_current_round_messages(seed, accel):
    """The accelerated protocol never requests messages covered only by
    the current token (DESIGN.md invariant: retransmission discipline).

    Read off the tokens (Section III-A-2): with ``accel >= 1`` every seq
    a handling adds to ``rtr`` is at most the seq of the token that
    participant handled the round before.  Window 0 is the original
    Ring, whose received token covers only messages already multicast:
    there the bound is the received token's own seq.
    """
    pids = [1, 2, 3, 4]
    config = ProtocolConfig(accelerated_window=accel)
    ring = LoopbackRing(pids, config,
                        drop_data=FirstTimeLoss(seed, pids=pids, p=0.05))
    handlings = record_token_handlings(ring)
    rng = random.Random(seed)
    for pid in pids:
        for i in range(rng.randint(0, 30)):
            ring.submit(pid, (pid, i))
    ring.run(max_steps=2_000_000)

    violations = []
    previous_seq = {pid: 0 for pid in pids}
    for pid, received, sent, _new, _retrans in handlings:
        added = set(sent.rtr) - set(received.rtr)
        bound = previous_seq[pid] if accel else received.seq
        violations += [(pid, seq, bound) for seq in added if seq > bound]
        previous_seq[pid] = received.seq
    assert violations == []


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=10_000))
def test_no_loss_means_no_retransmissions(seed):
    pids = [1, 2, 3, 4, 5]
    ring = LoopbackRing(pids, ProtocolConfig())
    rng = random.Random(seed)
    for pid in pids:
        for i in range(rng.randint(0, 40)):
            ring.submit(pid, (pid, i), Service.SAFE if i % 5 == 0 else Service.AGREED)
    ring.run(max_steps=2_000_000)
    for pid in pids:
        stats = ring.participants[pid].stats
        assert stats.retransmissions_requested == 0
        assert stats.retransmissions_sent == 0
