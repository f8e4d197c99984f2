"""Retransmission-request bookkeeping (Section III-A-2, rtr rules).

The accelerated protocol's key subtlety: the ``seq`` field of a received
token may cover messages that *have not been sent yet* (the predecessor's
post-token phase is still in flight).  Requesting those would trigger
useless retransmissions, so a participant only requests gaps up through
the ``seq`` of the token it received in the **previous** round — by the
time the token comes around again, every message covered by the previous
token has certainly been multicast.
"""

from __future__ import annotations

from typing import List, Tuple

from .messages import DataMessage, Token
from .window import ReceiveWindow


class RetransmitTracker:
    """Per-participant rtr state: the previous-round seq horizon."""

    __slots__ = ("_request_horizon", "requests_issued", "requests_answered")

    def __init__(self) -> None:
        #: seq of the token received in the previous round; gaps are only
        #: requested up to this horizon.
        self._request_horizon = 0
        self.requests_issued = 0
        self.requests_answered = 0

    @property
    def request_horizon(self) -> int:
        return self._request_horizon

    def answer_requests(
        self, token: Token, window: ReceiveWindow
    ) -> Tuple[List[DataMessage], List[int]]:
        """Messages we can retransmit and the seqs that remain unanswered.

        Every answerable request must be answered in the pre-token phase
        (otherwise other participants would re-request them).
        """
        if not token.rtr:
            return [], []
        answered: List[DataMessage] = []
        remaining: List[int] = []
        for seq in token.rtr:
            message = window.get(seq)
            if message is not None:
                answered.append(message)
            elif seq > window.discarded_upto:
                # A stable (discarded) message is held by everyone; a
                # request for it is a stale duplicate and simply dropped.
                remaining.append(seq)
        self.requests_answered += len(answered)
        return answered, remaining

    def my_new_requests(self, window: ReceiveWindow) -> List[int]:
        """Gaps this participant should request, bounded by the horizon."""
        missing = window.missing_between(window.local_aru,
                                         self._request_horizon)
        self.requests_issued += len(missing)
        return missing

    def merge_requests(
        self, remaining: List[int], mine: List[int]
    ) -> Tuple[int, ...]:
        """The outgoing token's rtr: unanswered requests plus our gaps.

        The loss-free common case (nothing unanswered, no gaps of our
        own) returns the shared empty tuple without any set/sort churn.
        """
        if not remaining and not mine:
            return ()
        return tuple(sorted(set(remaining) | set(mine)))

    def advance_horizon(self, received_token_seq: int) -> None:
        """Slide the horizon AFTER computing this round's requests."""
        if received_token_seq > self._request_horizon:
            self._request_horizon = received_token_seq
