"""Totem-style membership with Extended Virtual Synchrony delivery.

The ordering protocol (the paper's contribution) assumes an established
ring; this package provides the substrate that establishes and changes
rings: failure detection, the Gather/Commit/Recover state machine, and
recovery of old-ring messages with EVS transitional semantics.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "controller": (
        "EVSProcess", "MembershipTimeouts", "Outgoing", "State", "on_one_ring",
    ),
    "messages": (
        "JoinMessage", "CommitToken", "MemberInfo", "ProbeMessage",
        "RecoveryData", "RecoveryComplete", "GossipUpdate", "GossipPing",
        "GossipPingReq", "GossipAck",
    ),
    "gossip": (
        "GossipDetector", "PeerAlive", "PeerSuspect", "PeerConfirm",
    ),
})
