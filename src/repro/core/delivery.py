"""Delivery engine: Agreed and Safe delivery rules (Sections III-A-4, III-B).

Messages are delivered strictly in seq order.  An Agreed message is
deliverable once every lower seq has been delivered.  A Safe message
additionally waits until the stability bound covers it: the minimum of
the aru values on the last two tokens this participant sent — by then
every participant had a chance to lower the aru during a full rotation,
so everyone is known to hold the message.

An undelivered Safe message blocks every higher-seq message (of any
service) to preserve the single total order.
"""

from __future__ import annotations

from typing import List, Optional

from .buffer import ReceiveBuffer
from .config import Service
from .errors import DeliveryInvariantError
from .messages import DataMessage

_SAFE = Service.SAFE


class DeliveryEngine:
    """Tracks the delivery frontier and the Safe stability bound."""

    __slots__ = ("_delivered_upto", "_safe_bound", "_aru_sent_this_round",
                 "_aru_sent_last_round")

    def __init__(self) -> None:
        self._delivered_upto = 0
        self._safe_bound = 0
        #: aru values on the last two tokens sent by this participant.
        self._aru_sent_this_round: Optional[int] = None
        self._aru_sent_last_round: Optional[int] = None

    # -- state ----------------------------------------------------------------

    @property
    def delivered_upto(self) -> int:
        """Every message with seq <= this value has been delivered."""
        return self._delivered_upto

    @property
    def safe_bound(self) -> int:
        """Messages with seq <= this value are stable everywhere."""
        return self._safe_bound

    # -- token bookkeeping -------------------------------------------------------

    def note_token_sent(self, aru_on_sent_token: int) -> int:
        """Record the aru on a token we just sent; returns the new bound.

        The stability bound is min(aru this round, aru last round)
        (paper, Section III-A-4); it is monotone because each participant
        only learns *more* over time.
        """
        self._aru_sent_last_round = self._aru_sent_this_round
        self._aru_sent_this_round = aru_on_sent_token
        if self._aru_sent_last_round is None:
            return self._safe_bound
        bound = min(self._aru_sent_this_round, self._aru_sent_last_round)
        if bound > self._safe_bound:
            self._safe_bound = bound
        return self._safe_bound

    # -- delivery ------------------------------------------------------------------

    def collect_deliverable(self, buffer: ReceiveBuffer) -> List[DataMessage]:
        """Advance the frontier as far as the rules allow; returns messages.

        Stops at the first gap (message not yet received) or at the first
        Safe message beyond the stability bound.
        """
        out: List[DataMessage] = []
        # Direct read of the buffer's seq index: ``buffer.get`` is a
        # one-line wrapper around this dict, and this loop runs twice per
        # message that fills the frontier (the hit and the slot that
        # stops it).
        get = buffer._messages.get
        safe_bound = self._safe_bound
        next_seq = self._delivered_upto + 1
        while True:
            message = get(next_seq)
            if message is None:
                break
            # ``service is SAFE`` == Service.requires_stability, minus the
            # per-message property call on this per-delivery hot path.
            if message.service is _SAFE and next_seq > safe_bound:
                break
            if message.seq != next_seq:
                raise DeliveryInvariantError(
                    "buffer returned seq %d for slot %d" % (message.seq, next_seq)
                )
            out.append(message)
            next_seq += 1
        if out:
            self._delivered_upto = next_seq - 1
        return out

    def discardable_upto(self) -> int:
        """Messages at or below this seq may be garbage-collected.

        Everything covered by the stability bound has been received by
        all participants, so it can never be requested for retransmission
        again; it must also already be delivered locally (the bound never
        exceeds the local aru).
        """
        return min(self._safe_bound, self._delivered_upto)
