"""Differential test: the receive window against a dict model of the
buffer and delivery frontier it replaced.

The model stores messages in a dict keyed by seq, walks the aru and the
frontier from scratch after every arrival and token, and discards by
popping keys; the window keeps slots and two cursors and releases only
when its invariant says something can move.  Every step of a random
schedule must leave both with the same cursors, the same released run
and the same answers to every query.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DeliveryInvariantError, ReceiveWindow, Service
from repro.core.messages import DataMessage


class Model:
    """The dict-keyed store and frontier, walked the slow way."""

    def __init__(self):
        self.messages = {}
        self.local_aru = self.delivered_upto = self.safe_bound = 0
        self.discarded_upto = self.highest_seq_seen = 0
        self.arus = []

    def store(self, message):
        seq = message.seq
        self.highest_seq_seen = max(self.highest_seq_seen, seq)
        if seq <= self.discarded_upto or seq in self.messages:
            return False
        self.messages[seq] = message
        while self.local_aru + 1 in self.messages:
            self.local_aru += 1
        return True

    def release(self):
        out = []
        while True:
            message = self.messages.get(self.delivered_upto + 1)
            if message is None or (message.service is Service.SAFE
                                   and message.seq > self.safe_bound):
                return out
            out.append(message)
            self.delivered_upto += 1

    def note_token_sent(self, aru):
        self.arus.append(aru)
        if len(self.arus) > 1:
            self.safe_bound = max(self.safe_bound, min(self.arus[-2:]))

    def discard_upto(self, seq):
        gone = [s for s in self.messages if s <= seq]
        for s in gone:
            del self.messages[s]
        self.discarded_upto = max(self.discarded_upto, seq)
        return len(gone)


N = 40


def message(seq, safe):
    return DataMessage(seq=seq, pid=2, round=1,
                       service=Service.SAFE if safe else Service.AGREED)


#: Arrivals and token arus mostly near the model's aru, where the
#: cursors move (half the near arrivals in order), and some anywhere in
#: 1..N.
steps = st.one_of(
    st.tuples(st.just("near"), st.one_of(st.just(1), st.integers(-3, 6)),
              st.booleans()),
    st.tuples(st.just("data"), st.integers(1, N), st.booleans()),
    st.tuples(st.just("stale"), st.integers(0, 3)),
    st.tuples(st.just("own"), st.integers(0, 2), st.integers(1, 4),
              st.booleans()),
    st.tuples(st.just("token"), st.integers(-3, 3)),
    st.tuples(st.just("discard")),
)


def seqs(messages):
    return None if messages is None else [m.seq for m in messages]


def assert_same(window, model):
    assert window.discarded_upto <= window.delivered_upto <= window.local_aru
    for name in ("local_aru", "delivered_upto", "safe_bound",
                 "discarded_upto", "highest_seq_seen"):
        assert getattr(window, name) == getattr(model, name), name
    assert len(window) == len(model.messages)
    assert window.held_seqs() == sorted(model.messages)
    top = model.highest_seq_seen + 3
    for seq in range(top):
        assert window.get(seq) is model.messages.get(seq), seq
        assert window.has(seq) == (seq <= model.discarded_upto
                                   or seq in model.messages), seq
    for lo, hi in ((model.local_aru, top), (0, top), (3, 11),
                   (model.discarded_upto - 1, model.local_aru + 5)):
        expected = [s for s in range(max(lo, model.discarded_upto) + 1, hi + 1)
                    if s not in model.messages]
        assert window.missing_between(lo, hi) == expected, (lo, hi)


@settings(max_examples=400, deadline=None)
@given(st.lists(steps, max_size=120))
# Boundary values random schedules rarely reach: a Safe message arriving
# in order exactly at the bound, and just above it.
@example([("token", 1), ("token", 1), ("near", 1, True)])
@example([("token", 1), ("token", 1), ("near", 2, True), ("near", 1, True)])
def test_window_matches_dict_model(schedule):
    window, model = ReceiveWindow(), Model()
    for step in schedule:
        kind = step[0]
        if kind in ("near", "data", "stale"):
            if kind == "near":
                _, offset, safe = step
                seq = max(1, model.local_aru + offset)
            elif kind == "data":
                _, seq, safe = step
            else:
                # A re-send at or below the discard line.
                seq, safe = model.discarded_upto - step[1], False
                if seq < 1:
                    continue
            new = message(seq, safe)
            released = window.receive(new)
            expected = model.release() if model.store(new) else None
            assert seqs(released) == seqs(expected), step
        elif kind == "own":
            # This participant's round: a run from above every seq held,
            # stored, then whatever is deliverable released (step 4).
            _, gap, count, safe = step
            first = model.highest_seq_seen + 1 + gap
            run = [message(seq, safe) for seq in range(first, first + count)]
            window.extend(run)
            for own in run:
                model.store(own)
            assert seqs(window.release()) == seqs(model.release()), step
        elif kind == "token":
            aru = max(0, model.local_aru + step[1])
            window.note_token_sent(aru)
            model.note_token_sent(aru)
            assert seqs(window.release()) == seqs(model.release()), step
        else:
            upto = window.discardable_upto()
            assert upto == min(model.safe_bound, model.delivered_upto)
            assert window.discard_upto(upto) == model.discard_upto(upto)
        assert_same(window, model)


def test_extend_after_a_gap_leaves_the_aru():
    window = ReceiveWindow()
    window.receive(message(1, False))
    window.extend([message(4, False), message(5, False)])
    assert window.local_aru == 1 and window.highest_seq_seen == 5
    assert window.missing_between(1, 5) == [2, 3]
    assert window.receive(message(3, False)) == []
    # Filling the gap releases through the own run above it.
    assert [m.seq for m in window.receive(message(2, False))] == [2, 3, 4, 5]
    assert window.local_aru == window.delivered_upto == 5


def test_extend_reusing_a_held_seq_is_a_bug():
    window = ReceiveWindow()
    window.receive(message(1, False))
    window.receive(message(2, False))
    with pytest.raises(DeliveryInvariantError):
        window.extend([message(2, False)])
