"""Receive window: the messages a participant holds, and its two cursors.

Every participant keeps all messages it has received (including its own)
until they become stable (Safe-delivered by everyone), because any of
them may be requested for retransmission.  The window holds them in
seq-indexed slots from ``discarded_upto + 1`` upward, ``None`` marking a
seq not received yet, and moves two cursors over them:

* ``local_aru`` — the highest seq with no gap at or below it, which
  feeds the token aru rules (Section III-A-2);
* ``delivered_upto`` — every message at or below it has been delivered
  (Sections III-A-4, III-B).

Messages are delivered strictly in seq order.  An Agreed message is
deliverable once every lower seq has been delivered.  A Safe message
additionally waits until the stability bound covers it: the minimum of
the aru values on the last two tokens this participant sent — by then
every participant had a chance to lower the aru during a full rotation,
so everyone is known to hold the message.  An undelivered Safe message
blocks every higher-seq message (of any service) to preserve the single
total order.

The invariant is ``discarded_upto <= delivered_upto <= local_aru``, and
every step of the participant leaves the run collected: the seq above
``delivered_upto`` is beyond ``local_aru`` or a Safe message beyond the
bound.  So only a message that moves ``local_aru`` up from
``delivered_upto``, or a token that moves the bound, can release
anything, and a released run never passes ``local_aru``.
"""

from __future__ import annotations

from typing import List, Optional

from .config import Service
from .errors import DeliveryInvariantError
from .messages import DataMessage

_SAFE = Service.SAFE


class ReceiveWindow:
    """Messages received but not yet discarded, and the delivery cursors.

    ``local_aru``, ``delivered_upto`` and ``safe_bound`` are plain
    attributes for the hot paths to read; only the window moves them.
    """

    __slots__ = ("_slots", "_base", "local_aru", "delivered_upto",
                 "safe_bound", "_aru_sent_this_round", "_aru_sent_last_round")

    def __init__(self) -> None:
        #: ``_slots[i]`` holds seq ``_base + i``; the last slot is never
        #: ``None``.
        self._slots: List[Optional[DataMessage]] = []
        self._base = 1
        self.local_aru = 0
        self.delivered_upto = 0
        #: Messages with seq <= this value are stable everywhere.
        self.safe_bound = 0
        #: aru values on the last two tokens sent by this participant.
        self._aru_sent_this_round: Optional[int] = None
        self._aru_sent_last_round: Optional[int] = None

    # -- receiving -----------------------------------------------------------

    def receive(self, message: DataMessage) -> Optional[List[DataMessage]]:
        """Store a received message: ``None`` for a duplicate (already
        held, or discarded as stable), else the run it released for
        delivery, in seq order."""
        seq = message.seq
        slots = self._slots
        index = seq - self._base
        if index == len(slots):
            # In order, the common case: one append, two cursor moves.
            slots.append(message)
            if seq != self.local_aru + 1:
                return []  # a gap below it
            self.local_aru = seq
            if seq != self.delivered_upto + 1 or (
                    message.service is _SAFE and seq > self.safe_bound):
                return []
            self.delivered_upto = seq
            return [message]
        if index > len(slots):
            slots.extend([None] * (index - len(slots)))
            slots.append(message)
            return []
        if index < 0 or slots[index] is not None:
            return None
        slots[index] = message
        if seq != self.local_aru + 1:
            return []
        # The message filled the gap above local_aru: catch up through
        # the run it joins.
        last = len(slots) - 1
        while index < last and slots[index + 1] is not None:
            index += 1
        self.local_aru = self._base + index
        if seq != self.delivered_upto + 1:
            return []
        return self.release()

    def extend(self, messages: List[DataMessage]) -> None:
        """Store this participant's own new messages, seq-consecutive
        from above every seq it holds (the received token's seq).  What
        they make deliverable waits for :meth:`release`, the token
        handling's step 4."""
        first = messages[0].seq
        slots = self._slots
        gap = first - self._base - len(slots)
        if gap < 0:
            raise DeliveryInvariantError(
                "own seq %d already in the window" % first)
        if gap:
            slots.extend([None] * gap)
        elif self.local_aru == first - 1:
            self.local_aru = messages[-1].seq
        slots.extend(messages)

    # -- delivery ------------------------------------------------------------

    def note_token_sent(self, aru_on_sent_token: int) -> int:
        """Record the aru on a token we just sent; returns the new bound.

        The stability bound is min(aru this round, aru last round)
        (paper, Section III-A-4); it is monotone because each participant
        only learns *more* over time.
        """
        self._aru_sent_last_round = self._aru_sent_this_round
        self._aru_sent_this_round = aru_on_sent_token
        if self._aru_sent_last_round is None:
            return self.safe_bound
        bound = min(self._aru_sent_this_round, self._aru_sent_last_round)
        if bound > self.safe_bound:
            self.safe_bound = bound
        return self.safe_bound

    def release(self) -> List[DataMessage]:
        """Move ``delivered_upto`` as far as the rules allow; returns the
        messages it passed, in seq order.

        Stops at ``local_aru`` or at the first Safe message beyond the
        stability bound.
        """
        start = self.delivered_upto + 1
        aru = self.local_aru
        base = self._base
        slots = self._slots
        # Every held seq up to the bound is stable, whatever its service.
        stop = min(aru, max(self.safe_bound, start - 1))
        while stop < aru and slots[stop + 1 - base].service is not _SAFE:
            stop += 1
        self.delivered_upto = stop
        return slots[start - base:stop + 1 - base]

    def discardable_upto(self) -> int:
        """Messages at or below this seq may be garbage-collected.

        Everything covered by the stability bound has been received by
        all participants, so it can never be requested for retransmission
        again; it must also already be delivered locally.
        """
        return min(self.safe_bound, self.delivered_upto)

    def discard_upto(self, seq: int) -> int:
        """Release all messages with seq <= ``seq``; returns count released.

        Discarding an undelivered message would mean losing it, which is
        a protocol bug, not a recoverable condition.
        """
        count = seq - self._base + 1
        if count <= 0:
            return 0
        if seq > self.delivered_upto:
            raise DeliveryInvariantError(
                "discard_upto(%d) beyond delivered %d"
                % (seq, self.delivered_upto))
        del self._slots[:count]
        self._base = seq + 1
        return count

    # -- queries ---------------------------------------------------------------

    @property
    def discarded_upto(self) -> int:
        return self._base - 1

    @property
    def highest_seq_seen(self) -> int:
        """Highest seq ever stored (including since-discarded ones)."""
        return self._base - 1 + len(self._slots)

    def get(self, seq: int) -> Optional[DataMessage]:
        index = seq - self._base
        if 0 <= index < len(self._slots):
            return self._slots[index]
        return None

    def has(self, seq: int) -> bool:
        """True if the message is present (or already stable-discarded)."""
        return seq < self._base or self.get(seq) is not None

    def missing_between(self, lo: int, hi: int) -> List[int]:
        """Seqs in ``(lo, hi]`` that are not present — retransmission gaps."""
        base = self._base
        slots = self._slots
        top = base + len(slots)
        start = max(lo + 1, base)
        missing = [s for s in range(start, min(hi + 1, top))
                   if slots[s - base] is None]
        missing.extend(range(max(start, top), hi + 1))
        return missing

    def held_seqs(self) -> List[int]:
        """The seqs held, ascending."""
        base = self._base
        return [base + i for i, message in enumerate(self._slots)
                if message is not None]

    def __len__(self) -> int:
        return len(self._slots) - self._slots.count(None)
