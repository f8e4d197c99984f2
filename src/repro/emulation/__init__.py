"""The protocol over real UDP sockets (laptop-scale, one thread).

The library-based prototype of the paper, in miniature: real datagrams,
real kernel buffers, real token acceleration — on 127.0.0.1.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "cluster": ("EmulatedRing",),
    "node": ("EmulatedNode",),
    "transport": ("UdpTransport", "PortPair", "OversizedDatagramError"),
})
