"""Token/data priority switching (Section III-C).

A participant that has both a pending token and pending data messages
must decide which to process first.  Data messages always get high
priority immediately after a token handling; the question is when to
raise the token's priority again:

* **Method 1 (aggressive)** — as soon as we process any data message our
  ring predecessor sent in the next token round.  The token is processed
  at the earliest moment it cannot be "too early" by a full round.
* **Method 2 (conservative)** — only when we process a data message the
  predecessor sent *after* passing the token (its post-token phase).
  The token is then processed at its exact position in the message
  stream.  With ``accelerated_window == 0`` the predecessor never sends
  after the token, so the token is processed only when no data is
  pending — the original Ring protocol.

Priority only matters when both kinds of input are pending: a token is
always processed when no data message is available, so neither method
can deadlock.
"""

from __future__ import annotations

from .config import PriorityMethod
from .messages import DataMessage


class PriorityTracker:
    """Decides whether a pending token outranks pending data messages."""

    __slots__ = ("_method", "_ring_size", "_predecessor", "_trigger_hop",
                 "_token_high")

    def __init__(
        self,
        method: PriorityMethod,
        ring_size: int,
        predecessor: int,
        ring_index: int = 0,
    ) -> None:
        self._method = method
        self._ring_size = ring_size
        self._predecessor = predecessor
        #: The predecessor's handling that immediately precedes our next
        #: one: our first will be hop (ring_index + 1), so this is
        #: ring_index for round one, then (ours + ring_size - 1).
        self._trigger_hop = ring_index
        #: Data starts with high priority: anything multicast before the
        #: first token must be processed before it, exactly as in
        #: steady state.
        self._token_high = False

    @property
    def token_has_priority(self) -> bool:
        return self._token_high

    def note_token_handled(self, hop: int) -> None:
        """Called after we handle the token for hop ``hop``.

        Data regains high priority until the method's trigger fires.
        """
        self._trigger_hop = hop + self._ring_size - 1
        self._token_high = False

    def note_data_processed(self, message: DataMessage) -> None:
        """Called after each data message is processed."""
        if self._token_high:
            return
        if message.pid != self._predecessor:
            return
        if message.round < self._trigger_hop:
            return
        if self._method is PriorityMethod.AGGRESSIVE or message.sent_after_token:
            self._token_high = True

    def reset(self, ring_size: int, predecessor: int, ring_index: int = 0) -> None:
        """After a membership change: back to the round-one state.

        The new ring's geometry must be supplied: reusing the pre-change
        ``ring_size``/``predecessor``/``ring_index`` would key the trigger
        arithmetic on the *old* predecessor and hop spacing, so the token
        priority could be raised by the wrong participant's messages (or
        never raised at all) after a reconfiguration.
        """
        self._ring_size = ring_size
        self._predecessor = predecessor
        self._trigger_hop = ring_index
        self._token_high = False
