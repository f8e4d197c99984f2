"""Real-socket transport: UDP on localhost.

The paper's implementations use IP-multicast for data and UDP unicast
for the token, on separate ports/sockets (Section III-D).  This
emulation keeps the two-socket structure but builds logical multicast
from unicast fan-out so it runs anywhere (the paper notes Spread offers
the same fallback where IP-multicast is unavailable).

Datagrams carry the real wire format (:mod:`repro.wire.codec`): a
versioned, CRC-protected binary encoding, not pickle.  Receiving is
strict — a malformed, truncated or oversized datagram is counted and
dropped, never parsed optimistically and never allowed to crash the
ring's loop.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..core.coalesce import JumboDatagram, coalesce
from ..core.messages import DataMessage, Token
from ..wire.capture import TRAFFIC_DATA, TRAFFIC_TOKEN, CaptureWriter
from ..wire.codec import (
    HEADER_SIZE,
    TYPE_NAMES,
    DecodeError,
    decode,
    encode,
)

#: Loss hook for tests: (kind, obj, dst_pid) -> True to drop the send.
SendLossRule = Callable[[str, Any, int], bool]

#: Largest datagram this transport will put on the wire.  Generous for
#: loopback; a deployment would tune this to the path MTU and lean on
#: the packing layer instead.
MAX_DATAGRAM = 60_000

#: Receive buffer: the largest payload a UDP datagram can carry at all,
#: so the kernel can never silently truncate what we read — anything
#: over :data:`MAX_DATAGRAM` is *our* protocol violation and is counted
#: as an oversize drop instead.
_RECV_BUFSIZE = 65_535


class OversizedDatagramError(ValueError):
    """A send-side message encoded past :data:`MAX_DATAGRAM`."""

    def __init__(self, message: Any, encoded_size: int) -> None:
        self.wire_message = message
        self.encoded_size = encoded_size
        super().__init__(
            "%s encodes to %d bytes, over the %d-byte datagram limit; "
            "shrink the payload or let the packing layer split it"
            % (type(message).__name__, encoded_size, MAX_DATAGRAM)
        )


class PortPair(NamedTuple):
    """The two receive ports of one node (data, token)."""

    data_port: int
    token_port: int


class UdpTransport:
    """Two bound UDP sockets plus fan-out addressing of all peers."""

    def __init__(self, pid: int, host: str = "127.0.0.1") -> None:
        self.pid = pid
        self.host = host
        self._data_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._token_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        #: What to ``select`` on: (data, token).  :meth:`drain` reads one.
        self.sockets = (self._data_sock, self._token_sock)
        for sock in self.sockets:
            sock.bind((host, 0))
            sock.setblocking(False)
        self.ports = PortPair(
            self._data_sock.getsockname()[1],
            self._token_sock.getsockname()[1],
        )
        self._peers: Dict[int, PortPair] = {}
        #: (pid, data address) of every other peer, per :meth:`set_peers`.
        self._fanout: List[Tuple[int, Tuple[str, int]]] = []
        self._loss: Optional[SendLossRule] = None
        #: Configuration id stamped on outgoing data datagrams.
        self.ring_id = 0
        self.datagrams_sent = 0
        self.datagrams_received = 0
        #: Datagrams rejected by strict decoding (bad magic/version/CRC/
        #: layout, or a message type the socket does not accept).
        self.drops_malformed = 0
        #: Datagrams larger than :data:`MAX_DATAGRAM` (foreign senders;
        #: our own send side refuses to create them).
        self.drops_oversize = 0
        #: Last decode failure, for diagnostics (never raised).
        self.last_decode_error: Optional[str] = None
        self._capture: Optional[CaptureWriter] = None
        self._capture_t0 = 0.0

    def set_peers(self, peers: Dict[int, PortPair]) -> None:
        self._peers = dict(peers)
        self._fanout = [(pid, (self.host, ports.data_port))
                        for pid, ports in peers.items() if pid != self.pid]

    def set_loss_rule(self, rule: Optional[SendLossRule]) -> None:
        self._loss = rule

    def set_capture(self, writer: Optional[CaptureWriter],
                    t0: Optional[float] = None) -> None:
        """Record every send into ``writer`` (shared across nodes is fine).

        Send-side capture mirrors the simulator's switch-ingress tap:
        one record per logical multicast, not per fan-out copy.
        """
        self._capture = writer
        self._capture_t0 = time.monotonic() if t0 is None else t0

    @property
    def datagrams_dropped(self) -> int:
        """Everything received but refused: malformed plus oversized."""
        return self.drops_malformed + self.drops_oversize

    def register_metrics(self, registry) -> None:
        """Expose the transport counters through a MetricsRegistry:
        bound views, scoped to this transport's pid, over the attributes
        the ring's loop already increments."""
        pid = self.pid
        registry.bind("emulation.transport.datagrams_sent", self,
                      "datagrams_sent", node=pid)
        registry.bind("emulation.transport.datagrams_received", self,
                      "datagrams_received", node=pid)
        registry.bind("emulation.transport.drops_malformed", self,
                      "drops_malformed", node=pid)
        registry.bind("emulation.transport.drops_oversize", self,
                      "drops_oversize", node=pid)

    # -- sending ----------------------------------------------------------

    def _encode_checked(self, obj: Any) -> bytes:
        blob = encode(obj, ring_id=self.ring_id)
        if len(blob) > MAX_DATAGRAM:
            raise OversizedDatagramError(obj, len(blob))
        return blob

    def send_data(self, obj: Any) -> None:
        """Logical multicast: unicast the datagram to every peer."""
        self._multicast_data(self._encode_checked(obj), obj)

    def send_data_batch(self, objs, jumbo_cap: int) -> None:
        """Multicast a burst of data messages, coalescing into jumbos.

        Greedily groups the burst's datagrams under ``jumbo_cap`` (bounded
        by :data:`MAX_DATAGRAM`); each group of two or more travels as one
        jumbo datagram sharing a single header and CRC, while a group of
        one is sent byte-for-byte as :meth:`send_data` would.
        """
        objs = list(objs)
        if len(objs) == 1:
            self.send_data(objs[0])
            return
        cap = min(jumbo_cap, MAX_DATAGRAM)
        sized = []
        for obj in objs:
            blob = self._encode_checked(obj)
            sized.append(((obj, blob), len(blob) - HEADER_SIZE))
        for group, _size in coalesce(sized, cap, HEADER_SIZE):
            if len(group) == 1:
                obj, blob = group[0]
                self._multicast_data(blob, obj)
            else:
                datagram = JumboDatagram(tuple(obj for obj, _ in group))
                self._multicast_data(self._encode_checked(datagram), datagram)

    def _multicast_data(self, blob: bytes, obj: Any) -> None:
        if self._capture is not None:
            self._capture.write(
                time.monotonic() - self._capture_t0,
                self.pid, None, TRAFFIC_DATA, blob,
            )
        sendto, loss = self._data_sock.sendto, self._loss
        if loss is None:
            for _pid, address in self._fanout:
                sendto(blob, address)
            self.datagrams_sent += len(self._fanout)
        else:
            for pid, address in self._fanout:
                if not loss("data", obj, pid):
                    sendto(blob, address)
                    self.datagrams_sent += 1

    def send_token(self, obj: Any, dst: int) -> None:
        blob = self._encode_checked(obj)
        if self._capture is not None:
            self._capture.write(
                time.monotonic() - self._capture_t0,
                self.pid, dst, TRAFFIC_TOKEN, blob,
            )
        if self._loss is not None and self._loss("token", obj, dst):
            return
        ports = self._peers[dst]
        self._token_sock.sendto(blob, (self.host, ports.token_port))
        self.datagrams_sent += 1

    # -- receiving ---------------------------------------------------------

    def drain(self, sock: socket.socket) -> List[Any]:
        """Read everything pending on ``sock``, one of :attr:`sockets`,
        without blocking; strict decode, count-and-drop errors.

        The token socket accepts only tokens and the data socket only
        data messages — a well-formed frame of any other type (which a
        confused or hostile sender could aim at either port) is just as
        much a protocol violation as a CRC mismatch, and is counted and
        dropped rather than handed to the participant.
        """
        want_token = sock is self._token_sock
        received = []
        datagrams = 0
        expected = Token if want_token else DataMessage
        while True:
            try:
                blob = sock.recv(_RECV_BUFSIZE)
            except BlockingIOError:
                break
            if len(blob) > MAX_DATAGRAM:
                self.drops_oversize += 1
                continue
            try:
                message = decode(blob)
            except DecodeError as exc:
                self.drops_malformed += 1
                self.last_decode_error = str(exc)
                continue
            if type(message) is expected:
                received.append(message)
            elif type(message) is JumboDatagram and not want_token:
                # The codec guarantees every inner packet is a data
                # message, so a jumbo is acceptable wherever one is.
                received.extend(message.messages)
            else:
                self.drops_malformed += 1
                # decode() accepted the frame, so byte 3 is a known type.
                self.last_decode_error = (
                    "%s frame on the %s socket"
                    % (TYPE_NAMES[blob[3]], "token" if want_token else "data")
                )
                continue
            datagrams += 1
        self.datagrams_received += datagrams
        return received

    def close(self) -> None:
        self._data_sock.close()
        self._token_sock.close()

