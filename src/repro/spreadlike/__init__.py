"""A Spread-like group-communication layer on top of the ordering core.

Reproduces the architecture the paper's production implementation lives
in: client-daemon separation, named groups, open-group semantics
(senders need not be members), multi-group multicast with ordering
across groups, and membership notices ordered with data.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cluster": ("SpreadCluster",),
    "daemon": ("SpreadDaemon",),
    "client": ("SpreadClient",),
    "groups": ("GroupTable",),
    "dynamic": ("DynamicSpreadCluster", "DynamicSpreadDaemon"),
    "protocol": (
        "ClientId", "GroupMessage", "MembershipNotice", "SpreadError",
        "GroupJoin", "GroupLeave", "GroupCast", "PrivateCast",
        "PrivateMessage",
    ),
})
