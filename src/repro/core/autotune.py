"""Adaptive accelerated-window control (an extension beyond the paper).

The paper tunes ``Accelerated_window`` by hand per deployment ("the
accelerated window that resulted in the highest throughput", Section
IV-A) and warns that excessive overlap exhausts switch buffers (Section
I/III-C).  This module automates that tuning with an AIMD controller
driven by the protocol's own feedback signal: when one of OUR post-token
messages shows up as a retransmission request — i.e. a message we sent
after releasing the token was lost — we overlapped too much, so the
window shrinks multiplicatively; otherwise it creeps up additively each
epoch until it reaches the personal window (beyond which more overlap
cannot help).

With ``Accelerated_window = 0`` being exactly the original protocol,
the controller also functions as a safety valve: under pathological
loss it converges to original-ring behaviour.
"""

from __future__ import annotations

from .participant import Participant

#: Handlings per adjustment epoch.
EPOCH_ROUNDS = 8
#: Additive increase per clean epoch.
INCREASE_STEP = 1
#: Multiplicative decrease on post-token loss.
DECREASE_FACTOR = 0.5
#: Own post-token retransmissions tolerated per epoch before backing off.
LOSS_TOLERANCE = 0
#: The window never shrinks below this; it never grows beyond the
#: participant's personal window.
MIN_WINDOW = 0


class AcceleratedWindowTuner:
    """Wires AIMD control of one participant's accelerated window.

    Observes the participant's ``token`` and ``retransmitted`` stages;
    no protocol changes are required, and the tuner can be attached at
    any time.
    """

    __slots__ = ("participant", "_max_window",
                 "_rounds_in_epoch", "_own_post_token_losses",
                 "epochs", "increases", "decreases")

    def __init__(self, participant: Participant) -> None:
        self.participant = participant
        self._max_window = participant.config.personal_window
        self._rounds_in_epoch = 0
        self._own_post_token_losses = 0
        self.epochs = 0
        self.increases = 0
        self.decreases = 0
        participant.observe(token=self._on_token_handled,
                            retransmitted=self._on_retransmission)

    @property
    def window(self) -> int:
        return self.participant.accelerated_window

    # -- event handlers ----------------------------------------------------

    def _on_retransmission(self, message) -> None:
        # Somebody requested one of our messages again.  Only post-token
        # messages implicate the overlap; pre-token losses happen to the
        # original protocol too and must not shrink the window.
        if message.pid == self.participant.pid and message.sent_after_token:
            self._own_post_token_losses += 1

    def _on_token_handled(self, *_args) -> None:
        self._rounds_in_epoch += 1
        if self._rounds_in_epoch < EPOCH_ROUNDS:
            return
        self._close_epoch()

    # -- AIMD ---------------------------------------------------------------

    def _close_epoch(self) -> None:
        self.epochs += 1
        window = self.participant.accelerated_window
        if self._own_post_token_losses > LOSS_TOLERANCE:
            new_window = max(MIN_WINDOW, int(window * DECREASE_FACTOR))
            if new_window < window:
                self.decreases += 1
        else:
            new_window = min(self._max_window, window + INCREASE_STEP)
            if new_window > window:
                self.increases += 1
        self.participant.set_accelerated_window(new_window)
        self._rounds_in_epoch = 0
        self._own_post_token_losses = 0
