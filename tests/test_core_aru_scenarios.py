"""Multi-participant aru ownership scenarios driven by hand.

These walk the token around small rings manually (no harness) to pin
down the exact aru ownership transitions of Section III-A-2.
"""

from dataclasses import replace
import pytest

from repro.core import (
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    initial_token,
)


def make_ring(n, **config_kw):
    ring = Ring.of(range(1, n + 1))
    config = ProtocolConfig(**config_kw)
    return ring, {pid: Participant(pid, ring, config) for pid in ring}


def pump_data(participants, sends, exclude=()):
    """Deliver multicast messages to everyone else."""
    for message in sends:
        for pid, participant in participants.items():
            if pid != message.pid and pid not in exclude:
                participant.on_data(message)


def multicast(handled):
    """Every data message a token round sends, in send order."""
    return handled.retransmitted + handled.pre + handled.post


def handle(participants, pid, token, deliver_to_others=True, exclude=()):
    handled = participants[pid].on_token(token)
    sends = multicast(handled)
    if deliver_to_others:
        pump_data(participants, sends, exclude)
    return handled.token, sends


def test_aru_ownership_moves_to_slowest_participant():
    ring, participants = make_ring(3, accelerated_window=100)
    # P1 sends 5 messages, all post-token; P2 handles the token before
    # the data arrives (acceleration) and lowers the aru.
    for _i in range(5):
        participants[1].submit(b"x", Service.AGREED)
    handled = participants[1].on_token(initial_token())
    token1 = handled.token
    assert token1.aru == token1.seq == 5  # sender holds its own

    token2, _ = handle(participants, 2, token1, deliver_to_others=False)
    assert token2.aru == 0 and token2.aru_id == 2

    # Now P1's messages reach P2 and P3 before the next visits.
    sends = multicast(handled)
    pump_data(participants, sends)

    token3, _ = handle(participants, 3, token2)
    # P3 has everything but does not own the aru: leaves it alone.
    assert token3.aru == 0 and token3.aru_id == 2

    token4, _ = handle(participants, 1, token3)
    assert token4.aru == 0 and token4.aru_id == 2

    # The owner raises once the token returns: fully caught up.
    token5, _ = handle(participants, 2, token4)
    assert token5.aru == 5
    assert token5.aru_id is None


def test_ownership_steals_to_lower_participant():
    ring, participants = make_ring(3, accelerated_window=100)
    for _i in range(4):
        participants[1].submit(b"x", Service.AGREED)
    handled = participants[1].on_token(initial_token())
    token1 = handled.token
    sends = multicast(handled)

    # P2 receives NOTHING; P3 receives everything.
    token2, _ = handle(participants, 2, token1, deliver_to_others=False)
    assert token2.aru == 0 and token2.aru_id == 2
    pump_data(participants, sends, exclude=(2,))

    token3, _ = handle(participants, 3, token2)
    assert (token3.aru, token3.aru_id) == (0, 2)

    token4, _ = handle(participants, 1, token3)
    token5, _ = handle(participants, 2, token4, deliver_to_others=False)
    # P2 still has nothing: it raises only to its local aru (0), keeping
    # ownership because it is still behind.
    assert token5.aru == 0 and token5.aru_id == 2

    # P2 finally receives the messages; next visit releases ownership.
    pump_data({2: participants[2]}, sends)
    token6, _ = handle(participants, 3, token5)
    token7, _ = handle(participants, 1, token6)
    token8, _ = handle(participants, 2, token7)
    assert token8.aru == 4 and token8.aru_id is None


def test_safe_bound_advances_only_after_two_full_arus():
    ring, participants = make_ring(2, accelerated_window=0)
    participants[1].submit(b"s", Service.SAFE)
    handled = participants[1].on_token(initial_token())
    assert handled.delivered == []
    pump_data(participants, multicast(handled))
    token2, _ = handle(participants, 2, handled.token)
    assert token2.aru == 1
    # P1's second handling: its last two sent arus are (1, 1) -> bound 1.
    handled = participants[1].on_token(token2)
    assert [m.seq for m in handled.delivered] == [1]
    assert participants[1].safe_bound == 1


def test_singleton_participant_full_cycle():
    ring = Ring.of([7])
    participant = Participant(7, ring, ProtocolConfig(accelerated_window=5))
    participant.submit("a", Service.AGREED)
    participant.submit("b", Service.SAFE)
    token = initial_token()
    all_delivered = []
    for _round in range(3):
        handled = participant.on_token(token)
        token = handled.token
        all_delivered.extend(m.payload for m in handled.delivered)
    assert all_delivered == ["a", "b"]
    assert participant.safe_bound >= 2


def test_discarded_messages_not_retransmitted_but_ignored():
    ring, participants = make_ring(2, accelerated_window=0)
    for _i in range(3):
        participants[1].submit(b"x", Service.AGREED)
    handled = participants[1].on_token(initial_token())
    pump_data(participants, multicast(handled))
    token2, _ = handle(participants, 2, handled.token)
    token3, _ = handle(participants, 1, token2)
    token4, _ = handle(participants, 2, token3)
    # By now everything is stable and discarded at both.
    assert participants[1].window.discarded_upto == 3
    # A stale request for a discarded message is dropped silently.
    stale = replace(token4, hop=token4.hop + 2, rtr=(1, 2))
    handled = participants[1].on_token(stale)
    assert handled.retransmitted == []
    assert handled.token.rtr == ()
