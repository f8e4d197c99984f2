"""Tests for the adaptive accelerated-window controller."""

from dataclasses import replace
import pytest

from repro import LoopbackRing, ProtocolConfig, Service
from repro.core import (
    AcceleratedWindowTuner,
    Participant,
    Ring,
    Service as Svc,
    TunerConfig,
    initial_token,
)


def make_tuned_participant(accel=10, personal=20, **tuner_kw):
    ring = Ring.of((1, 2))
    participant = Participant(
        1, ring, ProtocolConfig(personal_window=personal,
                                accelerated_window=accel)
    )
    tuner = AcceleratedWindowTuner(participant, TunerConfig(**tuner_kw))
    return participant, tuner


def spin_rounds(participant, rounds, submit_per_round=0):
    token = initial_token()
    for _round in range(rounds):
        for _i in range(submit_per_round):
            participant.submit(b"x", Svc.AGREED)
        sent = participant.on_token(token).token
        token = replace(sent, hop=sent.hop + 2, aru=sent.seq)
    return token


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------

def test_clean_epochs_grow_window():
    participant, tuner = make_tuned_participant(accel=5, epoch_rounds=4)
    spin_rounds(participant, rounds=16)
    assert tuner.epochs == 4
    assert tuner.increases == 4
    assert participant.accelerated_window == 9


def test_window_capped_at_personal_window():
    participant, tuner = make_tuned_participant(
        accel=19, personal=20, epoch_rounds=1
    )
    spin_rounds(participant, rounds=10)
    assert participant.accelerated_window == 20


def test_explicit_max_window_respected():
    participant, tuner = make_tuned_participant(
        accel=5, epoch_rounds=1, max_window=7
    )
    spin_rounds(participant, rounds=10)
    assert participant.accelerated_window == 7


def test_post_token_loss_shrinks_window():
    participant, tuner = make_tuned_participant(accel=16, epoch_rounds=4)
    # Round 1: send post-token messages.
    for _i in range(8):
        participant.submit(b"x", Svc.AGREED)
    first = participant.on_token(initial_token()).token
    # The peer requests two of them (they were lost): pure post-token loss.
    requested = replace(first, hop=first.hop + 2, rtr=(1, 2))
    second = participant.on_token(requested).token
    # Finish the epoch cleanly.
    token = replace(second, hop=second.hop + 2, aru=second.seq)
    for _round in range(2):
        sent = participant.on_token(token).token
        token = replace(sent, hop=sent.hop + 2, aru=sent.seq)
    assert tuner.decreases == 1
    assert participant.accelerated_window == 8  # 16 * 0.5


def test_pre_token_loss_does_not_shrink_window():
    # With accel=2 and 8 messages, seqs 1..6 are pre-token; requesting
    # one of those must NOT trigger back-off.
    participant, tuner = make_tuned_participant(accel=2, epoch_rounds=4)
    for _i in range(8):
        participant.submit(b"x", Svc.AGREED)
    first = participant.on_token(initial_token()).token
    requested = replace(first, hop=first.hop + 2, rtr=(1,))
    token = participant.on_token(requested).token
    for _round in range(2):
        sent = participant.on_token(
            replace(token, hop=token.hop + 2, aru=token.seq)
        )
        token = sent.token
    assert tuner.decreases == 0
    assert participant.accelerated_window >= 2


def test_window_never_negative():
    participant, tuner = make_tuned_participant(
        accel=1, epoch_rounds=1, min_window=0
    )
    # Force repeated decreases.
    for _round in range(5):
        for _i in range(4):
            participant.submit(b"x", Svc.AGREED)
        token = participant.last_token_sent or initial_token()
        received = replace(
            token, hop=(token.hop or 0) + 2,
            rtr=tuple(
                s for s in range(max(1, token.seq - 1), token.seq + 1)
                if s > 0
            ),
        )
        participant.on_token(received)
    assert participant.accelerated_window >= 0


# ---------------------------------------------------------------------------
# End-to-end: the tuner converges in a running ring
# ---------------------------------------------------------------------------

def test_tuner_grows_in_clean_ring():
    config = ProtocolConfig(personal_window=12, accelerated_window=2)
    ring = LoopbackRing([1, 2, 3], config)
    tuners = [
        AcceleratedWindowTuner(ring.participants[pid],
                               TunerConfig(epoch_rounds=2))
        for pid in (1, 2, 3)
    ]
    for pid in (1, 2, 3):
        ring.submit_many(pid, list(range(60)))
    ring.run(max_steps=500_000)
    # No loss: every tuner should have grown its window.
    for tuner in tuners:
        assert tuner.window > 2
        assert tuner.decreases == 0
    # And the run stays totally ordered while windows change live.
    seqs = {p: ring.delivered_seqs(p) for p in (1, 2, 3)}
    assert seqs[1] == seqs[2] == seqs[3] == list(range(1, 181))


def test_tuner_backs_off_under_post_token_loss():
    # Drop the first transmission of every post-token message: maximum
    # overlap punishment.  The tuners must shrink their windows, and
    # the ring must still deliver everything.
    seen = set()

    def drop_post_token_once(message, dst):
        key = (message.seq, dst)
        if message.sent_after_token and key not in seen:
            seen.add(key)
            return True
        return False

    config = ProtocolConfig(personal_window=12, accelerated_window=12)
    ring = LoopbackRing([1, 2, 3], config, drop_data=drop_post_token_once)
    tuners = [
        AcceleratedWindowTuner(ring.participants[pid],
                               TunerConfig(epoch_rounds=2))
        for pid in (1, 2, 3)
    ]
    for pid in (1, 2, 3):
        ring.submit_many(pid, list(range(60)))
    ring.run(max_steps=500_000)
    assert sum(t.decreases for t in tuners) > 0
    assert max(t.window for t in tuners) < 12 + 5
    seqs = {p: ring.delivered_seqs(p) for p in (1, 2, 3)}
    assert seqs[1] == seqs[2] == seqs[3] == list(range(1, 181))
