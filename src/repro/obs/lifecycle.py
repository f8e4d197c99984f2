"""Causal message-lifecycle tracing.

A :class:`LifecycleTracer` stamps each message's journey through named
stages into a flat record stream (:mod:`repro.wire.tracefmt`).  The
same tracer attaches to the discrete-event sim (``SimCluster
.attach_tracer()``, sim-time clock) and the UDP emulation
(``EmulatedRing.attach_tracer()``, wall-clock), so one analyzer —
``python -m repro.cli trace-analyze`` — decomposes latency identically
in both worlds.

Stage taxonomy (the paper's Section III message path)::

    id  stage            stamped at                        by
    0   originated       application submit time           participant (retroactive)
    1   packed           protocol packet built from queue  participant
    2   coalesced        message entered a jumbo datagram  driver hook
    3   token_granted    initiator's token handling        participant
    4   multicast        NIC accepted the datagram         driver hook
    5   received         first arrival at a remote node    participant
    6   ordered          receive window released it        driver hook
    7   delivered_agreed driver executed Agreed delivery   driver hook
    8   delivered_safe   driver executed Safe delivery     driver hook
    9   token_handled    any node handled the token        participant

("participant" stages are observers on the participant's own stages,
:meth:`repro.core.participant.Participant.observe`.  ``ordered`` and
``delivered_*`` are one combined driver hook for speed — they are the
two highest-volume stages, one pair per delivered message per node.
The driver captures the instant the participant returned the released
messages and, after the delivery executes, makes a single hook call
that packs both records at once, so the pair costs one Python call,
one struct pack and one buffer append.)

Record fields: ``node`` is the observing pid, ``origin``/``seq``
identify the message ((origin, seq) is unique per run), and for
``token_handled`` records ``seq`` carries the token *hop* (round id)
and ``origin`` is -1.  ``aux`` is a stage-specific flag word:

* ``multicast``: bit 0 = post-token send, bit 1 = retransmission,
  bit 2 = part of a coalesced jumbo datagram.
* ``token_granted``: bit 0 = post-token (the message sits in the
  accelerated window).
* ``ordered``: bit 0 = Safe service.
* ``packed``: the number of application messages in the packet.
* ``token_handled``: the flow-control budget granted this handling
  (``allowed_new``) — trace-analyze's overlap denominator, matching
  :class:`repro.sim.trace.RoundTracer` exactly.

``originated`` is stamped *retroactively*: when the initiator's
``sent`` stage fires, the stamp reuses ``message.submitted_at``
(the driver clock at application submit).  The submit hot path itself
carries zero tracing cost, and the originated→delivered telescoping sum
equals the latency recorder's end-to-end sample exactly.

Cost model: when no tracer is attached, the drivers' hook attributes
are ``None`` and the participants' stages hold no observers (one test
each on paths that already branch per message).  An attached tracer
adds one closure call per stamped stage and nothing else.
"""

from __future__ import annotations

import functools
import struct
from typing import Any, Callable, Dict, List, Optional

from ..core import Service
from ..core.packing import PackedPayload
from ..wire.capture import WORLD_EMULATION, WORLD_SIM
from ..wire.tracefmt import (
    CLOCK_SIM,
    CLOCK_WALL,
    NO_PID,
    RECORD_SIZE,
    RECORD_STRUCT,
    TraceRecord,
    TraceWriter,
)

__all__ = [
    "LifecycleTracer",
    "STAGE_ORIGINATED",
    "STAGE_PACKED",
    "STAGE_COALESCED",
    "STAGE_TOKEN_GRANTED",
    "STAGE_MULTICAST",
    "STAGE_RECEIVED",
    "STAGE_ORDERED",
    "STAGE_DELIVERED_AGREED",
    "STAGE_DELIVERED_SAFE",
    "STAGE_TOKEN_HANDLED",
    "STAGE_NAMES",
    "AUX_POST_TOKEN",
    "AUX_RETRANSMISSION",
    "AUX_COALESCED",
    "AUX_SAFE",
]

STAGE_ORIGINATED = 0
STAGE_PACKED = 1
STAGE_COALESCED = 2
STAGE_TOKEN_GRANTED = 3
STAGE_MULTICAST = 4
STAGE_RECEIVED = 5
STAGE_ORDERED = 6
STAGE_DELIVERED_AGREED = 7
STAGE_DELIVERED_SAFE = 8
STAGE_TOKEN_HANDLED = 9

STAGE_NAMES = {
    STAGE_ORIGINATED: "originated",
    STAGE_PACKED: "packed",
    STAGE_COALESCED: "coalesced",
    STAGE_TOKEN_GRANTED: "token_granted",
    STAGE_MULTICAST: "multicast",
    STAGE_RECEIVED: "received",
    STAGE_ORDERED: "ordered",
    STAGE_DELIVERED_AGREED: "delivered_agreed",
    STAGE_DELIVERED_SAFE: "delivered_safe",
    STAGE_TOKEN_HANDLED: "token_handled",
}

AUX_POST_TOKEN = 1
AUX_RETRANSMISSION = 2
AUX_COALESCED = 4
#: ``ordered`` aux: the message asked for the Safe service.
AUX_SAFE = 1

#: Two consecutive records packed in one struct call — the
#: ordered/delivered pair every delivery emits.  Kept in lockstep with
#: ``tracefmt.RECORD_STRUCT``; the buffer stays a plain record stream.
_PAIR_STRUCT = struct.Struct("<dBBiiIIdBBiiII")
assert _PAIR_STRUCT.size == 2 * RECORD_SIZE


class LifecycleTracer:
    """Collects lifecycle stamps in memory; write out after the run.

    Build one via ``SimCluster.attach_tracer()`` /
    ``EmulatedRing.attach_tracer()`` rather than by hand — the drivers
    know their own clock and hook points.
    """

    def __init__(
        self,
        clock: Callable[[], float],
        world: int = WORLD_SIM,
        clock_kind: int = CLOCK_SIM,
        label: str = "",
        epoch: float = 0.0,
    ) -> None:
        self._clock = clock
        #: Subtracted from driver-passed raw timestamps (the delivery
        #: hook takes the driver's native clock values; the emulation
        #: driver hands over raw ``time.monotonic()`` readings).
        self.epoch = epoch
        self.world = world
        self.clock_kind = clock_kind
        self.label = label
        #: Stamps in event order, packed with ``tracefmt.RECORD_STRUCT``.
        #: A bytearray, not a list of tuples, on purpose: a long traced
        #: run accumulates 10^5..10^6 stamps, and GC-tracked tuples make
        #: every full collection rescan the whole trace — measured at
        #: 3x the entire direct stamping cost on the sim-mix benchmark.
        #: Packed bytes never enter the cyclic GC.  (Both drivers stamp
        #: from one thread: the emulation runs its ring on one loop.)
        self._buf = bytearray()

    # -- stamping ------------------------------------------------------------

    def watch_nodes(self, nodes: Dict[int, Any]) -> None:
        """Wire every node: its participant's stages and its driver's."""
        for pid, node in nodes.items():
            self.watch_participant(pid, node.participant)
            node.driver.set_trace_hooks(
                send=self.make_send_hook(pid),
                delivery=self.make_delivery_hook(pid),
                coalesce=self.make_coalesce_hook(pid),
            )

    # -- participant stages ---------------------------------------------------

    def watch_participant(self, pid: int, participant: Any) -> None:
        """Install the participant-driven stages for one ring member.

        Stamps ``originated`` (retroactive from ``submitted_at``),
        ``packed``, ``token_granted``, ``received`` and
        ``token_handled`` as observers of the participant's stages
        (:meth:`repro.core.participant.Participant.observe`), one
        closure call per stamped stage.  The driver-side stages
        (``coalesced``, ``multicast``, ``ordered``, ``delivered_*``)
        come from the hook factories below because only the driver
        knows when the NIC/socket and the delivery callback actually
        run.
        """
        extend = self._buf.extend
        pack = RECORD_STRUCT.pack
        clock = self._clock

        # Hot closures: every non-self binding is a default argument, so
        # each stamp costs one clock call, one C-level pack and one
        # bytearray extend — no GC-tracked allocation survives.

        def on_sent(message, _extend=extend, _pack=pack,
                    _clock=clock, _pid=pid, _packed=PackedPayload) -> None:
            now = _clock()
            payload = message.payload
            if type(payload) is _packed:
                submitted = min(
                    (item.submitted_at for item in payload.items
                     if item.submitted_at is not None),
                    default=None,
                )
                if submitted is not None:
                    _extend(_pack(
                        submitted, STAGE_ORIGINATED, 0,
                        _pid, _pid, message.seq, 0,
                    ))
                _extend(_pack(
                    now, STAGE_PACKED, 0, _pid, _pid, message.seq,
                    len(payload.items),
                ))
            elif message.submitted_at is not None:
                _extend(_pack(
                    message.submitted_at, STAGE_ORIGINATED, 0,
                    _pid, _pid, message.seq, 0,
                ))
            _extend(_pack(
                now, STAGE_TOKEN_GRANTED, 0, _pid, _pid, message.seq,
                AUX_POST_TOKEN if message.sent_after_token else 0,
            ))

        def on_received(message, _extend=extend, _pack=pack, _clock=clock,
                        _pid=pid, _stage=STAGE_RECEIVED) -> None:
            _extend(_pack(
                _clock(), _stage, 0, _pid, message.pid, message.seq, 0,
            ))

        def on_token(_received, token_out, allowed_new, _retransmissions,
                     _extend=extend, _pack=pack, _clock=clock, _pid=pid,
                     _stage=STAGE_TOKEN_HANDLED, _no_pid=NO_PID) -> None:
            _extend(_pack(
                _clock(), _stage, 0, _pid, _no_pid, token_out.hop,
                allowed_new,
            ))

        participant.observe(
            sent=on_sent, received=on_received, token=on_token,
        )

    # -- driver hook factories ----------------------------------------------

    def make_send_hook(self, pid: int):
        """Driver hook: the NIC/socket accepted one data datagram.

        Called as ``hook(message, retransmission, coalesced)``.
        """
        def on_send(message, retransmission: bool, coalesced: bool,
                    _extend=self._buf.extend, _pack=RECORD_STRUCT.pack,
                    _clock=self._clock, _stage=STAGE_MULTICAST,
                    _pid=pid) -> None:
            aux = 0
            if message.sent_after_token:
                aux |= AUX_POST_TOKEN
            if retransmission:
                aux |= AUX_RETRANSMISSION
            if coalesced:
                aux |= AUX_COALESCED
            _extend(_pack(
                _clock(), _stage, 0, _pid, message.pid, message.seq, aux,
            ))

        return on_send

    def make_coalesce_hook(self, pid: int):
        """Driver hook: ``hook(messages)`` when a jumbo batch forms."""

        def on_coalesce(messages, _extend=self._buf.extend,
                        _pack=RECORD_STRUCT.pack, _clock=self._clock,
                        _stage=STAGE_COALESCED, _pid=pid) -> None:
            now = _clock()
            count = len(messages)
            for message in messages:
                _extend(_pack(
                    now, _stage, 0, _pid, message.pid, message.seq, count,
                ))

        return on_coalesce

    def make_delivery_hook(self, pid: int):
        """Driver hook: ``hook(message, t_ordered, t_delivered)``.

        Called once per delivered message, after the delivery executed.
        ``t_ordered`` is the driver-clock instant the participant
        returned the released run (the receive window's release
        time, captured before any delivery CPU charge); ``t_delivered``
        the instant delivery completed.  Both are raw driver-clock
        readings — the hook subtracts the tracer epoch — and the pair
        is packed as one ``ordered`` plus one ``delivered_*`` record in
        a single struct call.
        """
        if self.epoch:
            def on_delivery(message, t_ordered: float, t_delivered: float,
                            _extend=self._buf.extend,
                            _pack=_PAIR_STRUCT.pack,
                            _t0=self.epoch, _pid=pid,
                            _ordered=STAGE_ORDERED,
                            _agreed=STAGE_DELIVERED_AGREED,
                            _safe_stage=STAGE_DELIVERED_SAFE,
                            _safe=Service.SAFE) -> None:
                origin = message.pid
                seq = message.seq
                if message.service is _safe:
                    _extend(_pack(
                        t_ordered - _t0, _ordered, 0, _pid, origin, seq,
                        AUX_SAFE,
                        t_delivered - _t0, _safe_stage, 0, _pid, origin,
                        seq, 0,
                    ))
                else:
                    _extend(_pack(
                        t_ordered - _t0, _ordered, 0, _pid, origin, seq, 0,
                        t_delivered - _t0, _agreed, 0, _pid, origin, seq, 0,
                    ))
        else:
            # Epoch-zero specialization (the sim clock): skip the two
            # float subtractions — each allocates — on the densest hook.
            def on_delivery(message, t_ordered: float, t_delivered: float,
                            _extend=self._buf.extend,
                            _pack=_PAIR_STRUCT.pack,
                            _pid=pid, _ordered=STAGE_ORDERED,
                            _agreed=STAGE_DELIVERED_AGREED,
                            _safe_stage=STAGE_DELIVERED_SAFE,
                            _safe=Service.SAFE) -> None:
                origin = message.pid
                seq = message.seq
                if message.service is _safe:
                    _extend(_pack(
                        t_ordered, _ordered, 0, _pid, origin, seq, AUX_SAFE,
                        t_delivered, _safe_stage, 0, _pid, origin, seq, 0,
                    ))
                else:
                    _extend(_pack(
                        t_ordered, _ordered, 0, _pid, origin, seq, 0,
                        t_delivered, _agreed, 0, _pid, origin, seq, 0,
                    ))

        return on_delivery

    # -- output --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._buf) // RECORD_SIZE

    def to_records(self) -> List[TraceRecord]:
        """Decoded stamps in event order (a fresh list per call)."""
        return [
            TraceRecord(t, stage, node, origin, seq, aux)
            for t, stage, _reserved, node, origin, seq, aux
            in RECORD_STRUCT.iter_unpack(bytes(self._buf))
        ]

    def write_binary(self, path: str) -> str:
        """Write the ``.rtrace`` file; returns the path."""
        with TraceWriter(
            path, self.world, self.clock_kind, self.label
        ) as writer:
            writer.write_packed(bytes(self._buf))
        return path


def sim_tracer(cluster, label: str = "") -> LifecycleTracer:
    """A tracer on the sim clock, fully wired into a SimCluster.

    Use via :meth:`repro.sim.cluster.SimCluster.attach_tracer`.
    """
    sim = cluster.sim
    tracer = LifecycleTracer(
        # partial(getattr, ...) stays entirely in C — a Python lambda
        # here would add a frame to every participant-stage stamp.
        clock=functools.partial(getattr, sim, "now"),
        world=WORLD_SIM,
        clock_kind=CLOCK_SIM,
        label=label,
    )
    tracer.watch_nodes(cluster.nodes)
    return tracer


def emulation_tracer(
    ring, t0: float, label: str = ""
) -> LifecycleTracer:
    """A tracer on the wall clock, wired into an EmulatedRing.

    ``t0`` anchors timestamps so they are comparable with the ring's
    ``.rcap`` captures (both subtract the same monotonic origin).
    """
    import time

    tracer = LifecycleTracer(
        clock=lambda: time.monotonic() - t0,
        world=WORLD_EMULATION,
        clock_kind=CLOCK_WALL,
        label=label,
        epoch=t0,
    )
    tracer.watch_nodes(ring.nodes)
    return tracer
