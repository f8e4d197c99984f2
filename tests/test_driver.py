"""The one driver loop (repro.core.driver), over a recording fake port.

Every substrate runs its participants through ``RingDriver``; what is
asserted here once therefore holds for the loopback harness, the
simulator and the UDP emulation alike: the priority pick, effect order
(the token between the pre- and post-token sends), batch boundaries
under ``jumbo_datagram_bytes``, pauses before effects, the trace hooks,
and the token-resend decision.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core import (
    DataMessage,
    JumboDatagram,
    Participant,
    ProtocolConfig,
    Ring,
    Service,
    TokenRound,
    initial_token,
)
from repro.core.coalesce import (
    FRAME_HEADER_BYTES,
    JUMBO_COUNT_BYTES,
    JUMBO_ENTRY_BYTES,
)
from repro.core import driver as driver_module
from repro.core.driver import TOKEN_RETRANSMIT_TIMEOUT_S, Inbox, RingDriver

HEADER = 60


def message(seq, size=1000, pid=1):
    return DataMessage(seq=seq, pid=pid, round=1, service=Service.AGREED,
                       payload=None, payload_size=size)


class CannedParticipant:
    """Returns a scripted round (``on_token``; ``None`` = a duplicate) and
    released-message lists (``on_data``); exposes what the driver reads."""

    def __init__(self, config=None, on_token=None, on_data=None):
        self.config = config or ProtocolConfig()
        self.token_has_priority = False
        self._on_token = on_token
        self._on_data = on_data or {}
        self.handled = []

    def on_token(self, token):
        self.handled.append(("token", token))
        return self._on_token

    def on_data(self, msg):
        self.handled.append(("data", msg.seq))
        return list(self._on_data.get(msg.seq, ()))


class RecordingPort:
    """Logs every effect in order; optionally charges pauses."""

    def __init__(self, participant, timed=False):
        self.participant = participant
        self.log = []
        self.now = 0.0
        self.idle = "idle"
        self.pauses = None
        if timed:
            self.pauses = SimpleNamespace(
                recv_token="recv_token", send_token="send_token",
                recv_data=_Sizes("recv_data"), send_data=_Sizes("send_data"),
                deliver=_Sizes("deliver"),
            )

    def clock(self):
        return self.now

    def unwrap(self, item):
        self.log.append(("unwrap",))
        return item

    def multicast(self, msg):
        self.log.append(("multicast", msg.seq))

    def multicast_batch(self, messages, datagram_bytes):
        self.log.append(
            ("batch", tuple(m.seq for m in messages), datagram_bytes))

    def send_token(self, token, dst):
        self.log.append(("token", token, dst))

    def deliver(self, msg):
        self.log.append(("deliver", msg.seq))

    def set_timer(self, delay_s, fn, *args):
        self.log.append(("timer", delay_s, fn, args))


class _Sizes:
    def __init__(self, name):
        self.name = name

    def __getitem__(self, size):
        return (self.name, size)


def effects(port, *kinds):
    return [entry for entry in port.log if entry[0] in kinds]


def token_round(config=None, timed=False):
    """pre-token sends 1-2 (1 a retransmission), token, post-token 3-7,
    a released run of two — the shape of a real token handling."""
    handled = TokenRound(
        retransmitted=[message(1)],
        pre=[message(2)],
        token="TOKEN",
        dst=2,
        post=[message(seq) for seq in range(3, 8)],
        delivered=[message(1), message(2)],
    )
    participant = CannedParticipant(config, on_token=handled)
    port = RecordingPort(participant, timed=timed)
    driver = RingDriver(port, HEADER)
    driver.tokens.append("T0")
    return driver, port, handled


# -- the priority pick -------------------------------------------------------

def test_pick_follows_section_iii_d():
    inbox = Inbox()
    assert inbox.pick(False) is None and inbox.pick(True) is None
    inbox.tokens.append("t")
    # A token is always read when no data is pending.
    assert inbox.pick(False) is inbox.tokens
    inbox.data.append("d")
    assert inbox.pick(False) is inbox.data
    assert inbox.pick(True) is inbox.tokens
    inbox.tokens.clear()
    assert inbox.pick(True) is inbox.data


def test_step_reads_data_before_a_low_priority_token():
    participant = CannedParticipant()
    driver = RingDriver(RecordingPort(participant))
    driver.tokens.append("T")
    driver.data.extend([message(1), message(2)])
    assert driver.step() and driver.step()
    assert participant.handled == [("data", 1), ("data", 2)]
    participant.token_has_priority = True
    driver.data.append(message(3))
    assert driver.step()
    assert participant.handled[-1] == ("token", "T")
    assert driver.step()
    assert not driver.step()  # idle: nothing handled, nothing raised
    assert participant.handled[-1] == ("data", 3)


# -- effect order ------------------------------------------------------------

def test_effects_run_in_action_order_without_coalescing():
    driver, port, _ = token_round()
    assert driver.step()
    assert [e[:2] for e in port.log] == [
        ("multicast", 1), ("multicast", 2),
        ("token", "TOKEN"), ("timer", TOKEN_RETRANSMIT_TIMEOUT_S),
        ("multicast", 3), ("multicast", 4), ("multicast", 5),
        ("multicast", 6), ("multicast", 7),
        ("deliver", 1), ("deliver", 2),
    ]


def test_coalescing_flushes_before_the_token_and_under_the_cap():
    # Sized as the codec frames it: one 12-byte frame header and the
    # count, then per packet an entry, the other 48 header bytes and the
    # payload.  3 x (5 + 48 + 1000) + 12 + 4 = 3175 <= 3200 < 4228:
    # three per datagram.
    config = ProtocolConfig(jumbo_datagram_bytes=3200)
    driver, port, _ = token_round(config)
    assert driver.step()
    base = FRAME_HEADER_BYTES + JUMBO_COUNT_BYTES
    entry = JUMBO_ENTRY_BYTES + (HEADER - FRAME_HEADER_BYTES) + 1000
    assert [e for e in port.log if e[0] != "timer"] == [
        # The pre-token pair flushes before the token, never across it.
        ("batch", (1, 2), base + 2 * entry),
        ("token", "TOKEN", 2),
        ("batch", (3, 4, 5), base + 3 * entry),
        # The tail flushes before the delivered run.
        ("batch", (6, 7), base + 2 * entry),
        ("deliver", 1), ("deliver", 2),
    ]
    for _kind, _seqs, size in effects(port, "batch"):
        assert size <= 3200


def test_a_lone_packet_travels_plain_under_coalescing():
    config = ProtocolConfig(jumbo_datagram_bytes=1100)  # one fits, two don't
    driver, port, _ = token_round(config)
    assert driver.step()
    assert not effects(port, "batch")
    assert [e[1] for e in effects(port, "multicast")] == list(range(1, 8))


def test_sends_at_the_end_of_the_list_still_flush():
    for cap in (None, 8850):
        participant = CannedParticipant(
            ProtocolConfig(jumbo_datagram_bytes=cap),
            on_token=TokenRound([], [], "T1", 2,
                                [message(1), message(2)], []),
        )
        port = RecordingPort(participant)
        driver = RingDriver(port, HEADER)
        driver.tokens.append("T0")
        driver.step()
        sent = effects(port, "multicast", "batch")
        assert sent == ([("multicast", 1), ("multicast", 2)] if cap is None
                        else [("batch", (1, 2), 16 + 2 * 1053)])
        # Nothing is carried over into the next input's walk, and a
        # duplicate token (no round) has no effect at all.
        del port.log[:]
        participant._on_token = None
        driver.tokens.append("T2")
        driver.step()
        assert port.log == []


def test_received_jumbo_datagram_feeds_each_packet_in_order():
    participant = CannedParticipant(on_data={
        1: [message(1)], 2: [], 3: [message(2), message(3)],
    })
    port = RecordingPort(participant, timed=True)
    driver = RingDriver(port, HEADER)
    driver.data.append(
        JumboDatagram((message(1), message(2), message(3))))
    loop = driver.run()
    pauses = [next(loop) for _ in range(5)]
    # One receive charge for the whole datagram, one per delivery.
    assert pauses == [("recv_data", 3000), ("deliver", 1000),
                      ("deliver", 1000), ("deliver", 1000), "idle"]
    assert participant.handled == [("data", 1), ("data", 2), ("data", 3)]
    assert effects(port, "deliver") == [
        ("deliver", 1), ("deliver", 2), ("deliver", 3)]


def test_self_addressed_token_on_a_one_node_ring():
    """The walk hands a self-addressed token to the port like any other
    (whether it crosses a NIC or goes straight back into the inbox is
    the substrate's routing), after the pre-token sends, and arms the
    resend timer for it."""
    ring = Ring.of([7])
    participant = Participant(7, ring, ProtocolConfig(accelerated_window=1))
    for i in range(3):
        participant.submit(("m", i), Service.AGREED, 100)
    port = RecordingPort(participant)
    driver = RingDriver(port)
    port.send_token = lambda token, dst: (
        port.log.append(("token", token, dst)), driver.tokens.append(token))
    driver.tokens.append(initial_token(ring.ring_id))
    assert driver.step()
    kinds = [e[0] for e in port.log]
    assert kinds[:5] == ["multicast", "multicast", "token", "timer",
                         "multicast"]
    assert effects(port, "token")[0][2] == 7
    assert [e[1] for e in effects(port, "deliver")] == [1, 2, 3]
    # The token came back to our own inbox; the ring keeps turning.
    assert len(driver.tokens) == 1
    assert driver.step()
    assert participant.stats.tokens_handled == 2


# -- pauses ------------------------------------------------------------------

def test_pauses_are_yielded_before_the_effect_they_pay_for():
    config = ProtocolConfig(jumbo_datagram_bytes=3200)
    driver, port, _ = token_round(config, timed=True)
    trail = []
    loop = driver.run()
    for pause in loop:
        trail.extend(port.log)
        del port.log[:]
        if pause == "idle":
            break
        trail.append(("pause", pause))
    trail = [e for e in trail if e[0] != "timer"]
    assert trail[0] == ("pause", "recv_token")
    # Each effect directly follows its own charge; nothing happens
    # before the first pause or between a pause and its effect.
    assert trail[1:] == [
        ("pause", ("send_data", 2000)), ("batch", (1, 2), 2122),
        ("pause", "send_token"), ("token", "TOKEN", 2),
        ("pause", ("send_data", 3000)), ("batch", (3, 4, 5), 3175),
        ("pause", ("send_data", 2000)), ("batch", (6, 7), 2122),
        ("pause", ("deliver", 1000)), ("deliver", 1),
        ("pause", ("deliver", 1000)), ("deliver", 2),
    ]


def test_untimed_port_yields_only_between_inputs():
    driver, port, _ = token_round()
    driver.data.append(message(9))
    loop = driver.run(stepping=True)
    assert next(loop) is None and port.participant.handled == [("data", 9)]
    assert next(loop) is None and effects(port, "deliver")


def test_step_survives_an_effect_that_raises():
    driver, port, _ = token_round()

    def refuse(msg):
        raise RuntimeError("refused %d" % msg.seq)

    port.deliver = refuse
    with pytest.raises(RuntimeError):
        driver.step()
    # The spent loop is replaced; later inputs are still handled.
    driver.data.append(message(9))
    assert driver.step()
    assert port.participant.handled[-1] == ("data", 9)


# -- trace hooks -------------------------------------------------------------

@pytest.mark.parametrize("cap", [None, 3200])
def test_trace_hooks_carry_flags_per_message(cap):
    driver, port, _ = token_round(ProtocolConfig(jumbo_datagram_bytes=cap))
    sends, deliveries, batches = [], [], []
    driver.set_trace_hooks(
        send=lambda m, retransmission, coalesced: sends.append(
            (m.seq, retransmission, coalesced)),
        delivery=lambda m, t_ordered, t_done: deliveries.append(
            (m.seq, t_ordered, t_done)),
        coalesce=lambda messages: batches.append(
            [m.seq for m in messages]),
    )
    port.now = 5.0
    original_deliver = port.deliver

    def slow_deliver(msg):
        port.now += 1.0
        original_deliver(msg)

    port.deliver = slow_deliver
    driver.step()
    coalesced = cap is not None
    assert sends == [(1, True, coalesced)] + [
        (seq, False, coalesced) for seq in range(2, 8)]
    assert batches == ([[1, 2], [3, 4, 5], [6, 7]] if coalesced else [])
    # Ordered when the participant returned the round, delivered later.
    assert deliveries == [(1, 5.0, 6.0), (2, 5.0, 7.0)]


# -- the token-resend decision -----------------------------------------------

def resend_setup():
    ring = Ring.of([1, 2, 3])
    participant = Participant(1, ring, ProtocolConfig())
    port = RecordingPort(participant)
    driver = RingDriver(port)
    driver.tokens.append(initial_token(ring.ring_id))
    driver.step()
    (_kind, delay, fn, (token, dst, attempt)), = effects(port, "timer")
    assert (delay, dst, attempt) == (TOKEN_RETRANSMIT_TIMEOUT_S, 2, 0)
    assert fn == driver.resend_token
    assert token is participant.last_token_sent
    del port.log[:]
    return driver, port, participant, token


def test_timer_resends_and_rearms_while_the_ring_is_silent():
    driver, port, participant, token = resend_setup()
    assert driver.resend_token(token, 2, 0)
    assert driver.tokens_resent == 1
    assert [e[:1] for e in port.log] == [("token",), ("timer",)]
    assert port.log[0] == ("token", token, 2)
    assert port.log[1][3] == (token, 2, 1)


def test_no_resend_once_a_newer_token_was_handled():
    driver, port, participant, token = resend_setup()
    newer = replace(token, hop=token.hop + 2)
    driver.tokens.append(newer)
    driver.step()
    del port.log[:]
    assert participant.last_token_sent is not token
    assert not driver.resend_token(token, 2, 0)
    assert port.log == [] and driver.tokens_resent == 0


def test_no_resend_once_progress_was_seen():
    driver, port, participant, token = resend_setup()
    later = DataMessage(seq=1, pid=2, round=token.hop + 1,
                        service=Service.AGREED, payload=None, payload_size=0)
    driver.data.append(later)
    driver.step()
    del port.log[:]
    assert participant.last_token_sent is token
    assert participant.progress_since_token_send()
    assert not driver.resend_token(token, 2, 0)
    assert port.log == []


def test_no_resend_past_the_limit(monkeypatch):
    monkeypatch.setattr(driver_module, "TOKEN_RETRANSMIT_LIMIT", 2)
    driver, port, participant, token = resend_setup()
    assert driver.resend_token(token, 2, 0)
    assert driver.resend_token(token, 2, 1)
    del port.log[:]
    assert not driver.resend_token(token, 2, 2)
    assert port.log == [] and driver.tokens_resent == 2
