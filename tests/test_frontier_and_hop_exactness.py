"""Exactness of two shortcuts on the hot paths.

* ``ReceiveWindow.receive`` releases a run only when the new message
  moves ``local_aru`` up from ``delivered_upto``.  That is exact because
  every entry point leaves the run collected: the seq above
  ``delivered_upto`` is not held yet or is a Safe message beyond the
  stability bound, and only a token moves the bound.
* ``LoopbackRing`` keeps the highest handled token hop as a running
  value, updated where a token is routed, in place of a
  ``max(last_received_hop)`` over the participants after each step.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LoopbackRing, ProtocolConfig, Service
from repro.core import DataMessage, Participant, Ring, Token


@st.composite
def arrival_schedules(draw):
    """Seqs 1..n, a random mix of Safe and Agreed, arriving in a random
    order with duplicates, and token handlings in between whose aru
    advances the Safe stability bound by random steps."""
    n = draw(st.integers(1, 14))
    safe = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ops = [("data", seq) for seq in draw(st.permutations(range(1, n + 1)))]
    extra = draw(st.lists(
        st.tuples(st.sampled_from(["data", "token"]), st.integers(0, n)),
        max_size=3 * n))
    for kind, value in extra:
        if kind == "data" and value == 0:
            continue
        ops.insert(draw(st.integers(0, len(ops))), (kind, value))
    return n, safe, ops + [("token", n), ("token", n)]


@settings(max_examples=300, deadline=None)
@given(arrival_schedules())
def test_a_skipped_frontier_walk_would_release_nothing(schedule):
    n, safe, ops = schedule
    ring = Ring.of((1, 2, 3))
    participant = Participant(1, ring, ProtocolConfig())
    released = []
    hop = 0
    for kind, value in ops:
        if kind == "data":
            service = Service.SAFE if safe[value - 1] else Service.AGREED
            released += participant.on_data(
                DataMessage(seq=value, pid=2, round=1, service=service))
        else:
            # Owned by someone else (rule 4), so the aru sent is
            # min(local aru, value): the bound advances by random steps.
            token = Token(ring_id=ring.ring_id, hop=hop, seq=n, aru=value,
                          aru_id=2)
            hop += len(ring)
            released += participant.on_token(token).delivered
        # Every entry point leaves the run collected, so a release
        # on_data skipped, or any other, now releases nothing.
        assert participant.window.release() == []
    assert [m.seq for m in released] == list(
        range(1, participant.delivered_upto + 1))
    # Two final tokens at aru n stabilise everything that arrived.
    assert participant.delivered_upto == n


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    data_loss=st.sampled_from([0.0, 0.2]),
    token_loss=st.sampled_from([0.0, 0.1]),
    retransmit_every=st.integers(2, 30),
)
def test_running_hop_is_the_highest_handled_hop(
        n, seed, data_loss, token_loss, retransmit_every):
    rng = random.Random(seed)
    ring = LoopbackRing(
        range(1, n + 1), ProtocolConfig(),
        drop_data=lambda _message, _dst: rng.random() < data_loss,
        drop_token=lambda _token, _dst: rng.random() < token_loss,
    )
    pids = sorted(ring.participants)
    for pid in pids:
        for i in range(8):
            ring.submit(pid, (pid, i), Service.SAFE if i % 3 else Service.AGREED)

    def check():
        assert ring._highest_hop == max(
            p._last_received_hop for p in ring.participants.values())

    ring.start()
    check()
    for step in range(300):
        if step % retransmit_every == 0:
            # A spurious timer: the resent token is a stale duplicate.
            ring.retransmit_token(rng.choice(pids))
            check()
        if not ring.step():
            # The token was lost: some member's timer fires.
            ring.retransmit_token(rng.choice(pids))
        check()
