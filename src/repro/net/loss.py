"""Loss models for fault-injection.

The switch already drops frames on genuine buffer overflow; these models
inject *additional* loss so tests can exercise retransmission, token loss,
and the accelerated protocol's retransmission discipline under controlled,
reproducible conditions.  All randomness is seeded.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Optional, Set

from .frames import Frame, Traffic

#: A loss model is a predicate: return True to DROP the frame.
LossModel = Callable[[Frame], bool]


def no_loss(_frame: Frame) -> bool:
    """The default: drop nothing beyond real buffer overflow."""
    return False


def derive_port_loss(loss: LossModel, port_host: int) -> LossModel:
    """The per-port view of a loss model for one switch egress port.

    Models that expose ``for_port`` (seeded stochastic models,
    :class:`ReceiverLoss`) return a port-specific derivation so drop
    outcomes never depend on port iteration order; plain callables
    (deterministic predicates) are shared as-is.
    """
    for_port = getattr(loss, "for_port", None)
    if for_port is not None:
        return for_port(port_host)
    return loss


def _derive_port_seed(seed: int, port_host: int) -> int:
    """A stable per-port RNG seed, independent of port install order."""
    return (seed * 1_000_003 + 7919 * (port_host + 1)) & 0x7FFFFFFF


class BernoulliLoss:
    """Drop each frame independently with probability ``p`` (seeded).

    One instance holds ONE RNG; installing the same instance on several
    switch ports would make each port's drop outcomes depend on the
    order the ports happen to consume the shared stream.  Use
    :meth:`for_port` to derive an independently seeded per-port model
    (drops still aggregate into this instance's ``dropped``).
    """

    __slots__ = ("p", "seed", "spare_token", "_rng", "_parent", "dropped")

    def __init__(self, p: float, seed: int = 0, spare_token: bool = False) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("loss probability must be in [0, 1], got %r" % p)
        self.p = p
        self.seed = seed
        self.spare_token = spare_token
        self._rng = random.Random(seed)
        self._parent: Optional["BernoulliLoss"] = None
        self.dropped = 0

    def for_port(self, port_host: int) -> "BernoulliLoss":
        """An independent per-port copy, deterministically seeded.

        The derived seed depends only on (base seed, port id), so drop
        outcomes on one port never depend on which other ports exist or
        in what order frames hit them.
        """
        child = BernoulliLoss(
            self.p, seed=_derive_port_seed(self.seed, port_host),
            spare_token=self.spare_token,
        )
        child._parent = self
        return child

    def __call__(self, frame: Frame) -> bool:
        if self.spare_token and frame.traffic is Traffic.TOKEN:
            return False
        if self._rng.random() < self.p:
            self.dropped += 1
            if self._parent is not None:
                self._parent.dropped += 1
            return True
        return False


class TargetedLoss:
    """Drop specific frames by predicate — deterministic fault injection.

    Example: drop the 3rd data frame from host 2, or every token once.
    """

    __slots__ = ("_should_drop", "_max_drops", "dropped")

    def __init__(self, should_drop: Callable[[Frame], bool], max_drops: Optional[int] = None) -> None:
        self._should_drop = should_drop
        self._max_drops = max_drops
        self.dropped = 0

    def __call__(self, frame: Frame) -> bool:
        if self._max_drops is not None and self.dropped >= self._max_drops:
            return False
        if self._should_drop(frame):
            self.dropped += 1
            return True
        return False


class SequenceLoss:
    """Drop data frames whose protocol message carries a listed seq.

    The payload must expose a ``seq`` attribute (our DataMessage does);
    frames without one are never dropped.  Each seq is dropped at most
    ``times`` times, so retransmissions eventually get through.
    """

    __slots__ = ("_remaining", "dropped")

    def __init__(self, seqs: Iterable[int], times: int = 1) -> None:
        self._remaining = {seq: times for seq in seqs}
        self.dropped = 0

    def __call__(self, frame: Frame) -> bool:
        # The traffic check MUST come first: tokens also expose a ``seq``
        # attribute, so reading the payload before checking the traffic
        # class would miscount (and potentially drop) token frames whose
        # seq happens to be listed.
        if frame.traffic is not Traffic.DATA:
            return False
        seq = getattr(frame.payload, "seq", None)
        if seq is None:
            return False
        left = self._remaining.get(seq, 0)
        if left > 0:
            self._remaining[seq] = left - 1
            self.dropped += 1
            return True
        return False


class PerFragmentLoss:
    """Frame-level loss applied per Ethernet fragment of a datagram.

    The paper's Section IV-A-3 caveat for large UDP datagrams: "the
    loss of a single frame results in the loss of the whole datagram".
    A datagram spanning k fragments is therefore lost with probability
    1 - (1 - p)^k — loss amplification that grows with payload size.
    """

    __slots__ = ("p", "seed", "spare_token", "_rng", "_parent",
                 "dropped", "fragments_seen")

    def __init__(self, p_per_fragment: float, seed: int = 0,
                 spare_token: bool = True) -> None:
        if not 0.0 <= p_per_fragment <= 1.0:
            raise ValueError("fragment loss probability must be in [0, 1]")
        self.p = p_per_fragment
        self.seed = seed
        self.spare_token = spare_token
        self._rng = random.Random(seed)
        self._parent: Optional["PerFragmentLoss"] = None
        self.dropped = 0
        self.fragments_seen = 0

    def for_port(self, port_host: int) -> "PerFragmentLoss":
        """An independent per-port copy, deterministically seeded (see
        :meth:`BernoulliLoss.for_port`)."""
        child = PerFragmentLoss(
            self.p, seed=_derive_port_seed(self.seed, port_host),
            spare_token=self.spare_token,
        )
        child._parent = self
        return child

    def __call__(self, frame: Frame) -> bool:
        if self.spare_token and frame.traffic is Traffic.TOKEN:
            return False
        fragments = frame.fragments
        self.fragments_seen += fragments
        if self._parent is not None:
            self._parent.fragments_seen += fragments
        for _fragment in range(fragments):
            if self._rng.random() < self.p:
                self.dropped += 1
                if self._parent is not None:
                    self._parent.dropped += 1
                return True
        return False


class ReceiverLoss:
    """Drop frames only on the path to specific receivers.

    The switch applies loss per output port, so a multicast frame can be
    lost by one participant and received by the rest — the scenario that
    makes retransmission requests participant-specific.
    """

    __slots__ = ("_receivers", "_inner", "dropped")

    def __init__(self, receivers: Iterable[int], inner: LossModel) -> None:
        self._receivers: Set[int] = set(receivers)
        self._inner = inner
        self.dropped = 0

    def for_port(self, port_host: int) -> LossModel:
        def model(frame: Frame) -> bool:
            if port_host not in self._receivers:
                return False
            if self._inner(frame):
                self.dropped += 1
                return True
            return False

        return model
