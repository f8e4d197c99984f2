"""Membership control messages (Totem membership, Spread variant).

Three message kinds drive a membership change:

* :class:`JoinMessage` — flooded while in the Gather state; carries the
  sender's current view of who should be in the next ring (``proc_set``)
  and who has demonstrably failed (``fail_set``).  Consensus is reached
  when every live member of ``proc_set`` has sent a join with identical
  sets.
* :class:`CommitToken` — sent around the candidate ring by the
  representative; the first rotation collects every member's old-ring
  state, the second rotation distributes the complete table and starts
  recovery.
* :class:`RecoveryData` / :class:`RecoveryComplete` — old-ring messages
  flooded on the new ring so all continuing members share the same set,
  and the end-of-flood marker.

The gossip failure detector's wire messages (:class:`GossipPing`,
:class:`GossipPingReq`, :class:`GossipAck`, each carrying piggybacked
:class:`GossipUpdate` claims) live here too, so that the wire codec does
not load the detector (:mod:`repro.membership.gossip`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from ..core.messages import DataMessage


@dataclass(frozen=True)
class ProbeMessage:
    """Periodic presence announcement (Operational state).

    Totem discovers mergeable rings through *foreign messages* — any
    traffic from a process outside the current ring.  An idle ring sends
    no multicast traffic, so daemons announce themselves periodically;
    receiving a probe from a foreign ring is the foreign-message trigger.
    """

    sender: int
    ring_id: int


@dataclass(frozen=True)
class JoinMessage:
    sender: int
    proc_set: FrozenSet[int]
    fail_set: FrozenSet[int]
    #: Highest ring id the sender has belonged to (new ring id exceeds all).
    ring_seq: int


@dataclass(frozen=True)
class MemberInfo:
    """What one member contributes on the commit token's first rotation."""

    pid: int
    old_ring_id: int
    #: The member's old-ring local aru (all received through here).
    old_aru: int
    #: Highest old-ring seq the member holds any message for.
    high_seq: int
    #: The old configuration's membership as this member knew it.
    old_members: Tuple[int, ...]
    #: The member's old-ring stability (safe) bound.
    old_safe_bound: int
    #: How far the member had delivered on the old ring.
    old_delivered_upto: int


@dataclass(frozen=True)
class CommitToken:
    new_ring_id: int
    members: Tuple[int, ...]
    rotation: int
    collected: Tuple[MemberInfo, ...] = ()

    def with_info(self, info: MemberInfo) -> "CommitToken":
        existing = tuple(i for i in self.collected if i.pid != info.pid)
        return CommitToken(
            self.new_ring_id, self.members, self.rotation,
            existing + (info,),
        )

    def info_for(self, pid: int) -> Optional[MemberInfo]:
        for info in self.collected:
            if info.pid == pid:
                return info
        return None


@dataclass(frozen=True)
class RecoveryData:
    """An old-ring message flooded during recovery."""

    sender: int
    old_ring_id: int
    message: DataMessage


@dataclass(frozen=True)
class RecoveryComplete:
    """Sender has flooded everything it holds for recovery."""

    sender: int
    new_ring_id: int


@dataclass(frozen=True, slots=True)
class GossipUpdate:
    """One piggybacked membership claim: ``pid`` is ``status`` at ``incarnation``."""

    pid: int
    incarnation: int
    status: int


@dataclass(frozen=True, slots=True)
class GossipPing:
    """Direct probe; the receiver answers with a :class:`GossipAck`."""

    sender: int
    incarnation: int
    probe_id: int
    updates: Tuple[GossipUpdate, ...] = ()


@dataclass(frozen=True, slots=True)
class GossipPingReq:
    """Indirect probe request: "ping ``target`` for me, relay its ack"."""

    sender: int
    incarnation: int
    target: int
    probe_id: int
    updates: Tuple[GossipUpdate, ...] = ()


@dataclass(frozen=True, slots=True)
class GossipAck:
    """Liveness attestation for ``sender`` answering ``probe_id``.

    For a direct ping the attested node sends it itself; for an
    indirect probe the intermediary relays it with ``sender`` still the
    attested node (the wire source is the intermediary — the sans-IO
    host passes the wire source separately).
    """

    sender: int
    incarnation: int
    probe_id: int
    updates: Tuple[GossipUpdate, ...] = ()
