"""Micro-benchmarks of the sans-IO protocol engine.

Not a paper figure; quantifies the per-operation cost of the protocol
core itself (supports the Section IV discussion of processing costs).
These use pytest-benchmark's statistics for real over many rounds.
"""

from dataclasses import replace
from repro.core import (
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    initial_token,
)
from repro.core.messages import DataMessage


def fresh_participant(**config_kw):
    ring = Ring.of(range(8))
    return Participant(0, ring, ProtocolConfig(**config_kw))


def test_on_token_idle(benchmark):
    participant = fresh_participant()
    state = {"token": initial_token()}

    def handle():
        handled = participant.on_token(state["token"])
        state["token"] = replace(
            handled.token, hop=state["token"].hop + 8
        )

    benchmark(handle)


def test_on_token_sending_window(benchmark):
    participant = fresh_participant(personal_window=40, accelerated_window=20)
    state = {"token": initial_token()}

    def handle():
        for _i in range(40):
            participant.submit(b"x", Service.AGREED, payload_size=1350)
        sent = participant.on_token(state["token"]).token
        # Keep everyone caught up so buffers stay bounded.
        state["token"] = replace(sent, hop=sent.hop + 8, aru=sent.seq)

    benchmark(handle)


def test_on_data_insert_and_deliver(benchmark):
    participant = fresh_participant()
    state = {"seq": 0}

    def handle():
        state["seq"] += 1
        message = DataMessage(
            seq=state["seq"], pid=1, round=1, service=Service.AGREED,
            payload=b"x", payload_size=1350,
        )
        participant.on_data(message)

    benchmark(handle)


def test_on_data_out_of_order(benchmark):
    participant = fresh_participant()
    state = {"base": 0}

    def handle():
        # Arrivals in pairs (n+1, n): every second message triggers a
        # catch-up delivery of two.
        base = state["base"]
        for seq in (base + 2, base + 1):
            participant.on_data(
                DataMessage(seq=seq, pid=1, round=1,
                            service=Service.AGREED, payload=b"x")
            )
        state["base"] = base + 2

    benchmark(handle)


def test_retransmission_answering(benchmark):
    participant = fresh_participant(personal_window=64, accelerated_window=0,
                                    global_window=1000)
    for _i in range(64):
        participant.submit(b"x", Service.AGREED)
    first = participant.on_token(initial_token()).token
    state = {"token": first}

    def handle():
        # Every round requests the same 16 still-buffered messages.
        token = replace(
            state["token"], hop=state["token"].hop + 8, rtr=tuple(range(1, 17))
        )
        state["token"] = participant.on_token(token).token

    benchmark(handle)
