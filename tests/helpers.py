"""Shared test utilities."""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Set, Tuple

from repro.core import DataMessage, Service


class FirstTimeLoss:
    """Deterministic loss: drop the first transmission of chosen (seq, dst).

    Retransmissions get through, so runs always converge.  Keyed on seq
    so the same pattern is replayable across different implementations.
    """

    def __init__(self, seed: int, max_seq: int = 2000, pids: Sequence[int] = (), p: float = 0.05):
        rng = random.Random(seed)
        self.targets: Set[Tuple[int, int]] = {
            (s, d)
            for s in range(1, max_seq + 1)
            for d in pids
            if rng.random() < p
        }
        self.seen: Set[Tuple[int, int]] = set()
        self.drops = 0

    def key_drop(self, seq: int, dst: int) -> bool:
        key = (seq, dst)
        if key in self.targets and key not in self.seen:
            self.seen.add(key)
            self.drops += 1
            return True
        return False

    def __call__(self, message: DataMessage, dst: int) -> bool:
        return self.key_drop(message.seq, dst)


def record_token_handlings(ring) -> List[Tuple[Any, ...]]:
    """Observe every token handling on ``ring``'s participants.

    Returns a list that fills, in handling order, with one
    ``(pid, received, sent, new_messages, retransmissions)`` tuple per
    handling.
    """
    handlings: List[Tuple[Any, ...]] = []
    for pid, participant in ring.participants.items():
        def hook(*args, _pid=pid):
            handlings.append((_pid,) + args)

        participant.observe(token=hook)
    return handlings


def mixed_workload(
    seed: int, pids: Sequence[int], per_pid: int, safe_fraction: float = 0.3
) -> List[Tuple[int, Any, Service]]:
    """A reproducible plan of (pid, payload, service) submissions."""
    rng = random.Random(seed)
    plan: List[Tuple[int, Any, Service]] = []
    for pid in pids:
        for i in range(per_pid):
            service = Service.SAFE if rng.random() < safe_fraction else Service.AGREED
            plan.append((pid, "p%d-%d" % (pid, i), service))
    return plan


def assert_same_sequences(sequences: dict) -> None:
    """All participants delivered the same ordered sequence."""
    values = list(sequences.values())
    first = values[0]
    for other in values[1:]:
        assert other == first, "delivery sequences diverge"


def assert_prefix_consistent(sequences: dict) -> None:
    """Each pair of delivery sequences is prefix-related (partial runs)."""
    values = list(sequences.values())
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
            assert longer[: len(shorter)] == shorter, "sequences not prefix-related"


def receive(transport, timeout_s: float) -> Tuple[List[Any], List[Any]]:
    """-> (data, tokens) a ``UdpTransport`` holds, after waiting up to
    ``timeout_s`` for either socket: one ``select``, then the
    transport's strict, non-blocking drain of each socket."""
    import select

    data_sock, token_sock = transport.sockets
    select.select(transport.sockets, [], [], timeout_s)
    return transport.drain(data_sock), transport.drain(token_sock)
