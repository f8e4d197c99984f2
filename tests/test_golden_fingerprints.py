"""Golden fingerprints: the hot-path optimizations must not move a bit.

Each scenario runs a small canonical simulation and pins two things
**separately**:

* a SHA-256 over *every result* — each latency sample, each per-node
  protocol counter, each switch/port/NIC counter and the final
  simulated time — and
* the kernel's exact event count, as a plain integer.

An optimisation may make the simulator *faster, never different*: a PR
that removes kernel events re-pins the integers (old -> new listed in
CHANGES.md) and must leave the six digests alone, so a changed float
cannot hide behind a re-minted hash.  The digests below were minted at
the commit *before* the fabric's transmit lines became arithmetic
(ISSUE 22) — from the parent's generator NIC and switch ports — and
matched unchanged after it; only the six event counts moved.

When a deliberate semantic change lands (new default, new event
source), recompute the digests by calling each scenario builder in
``SCENARIOS`` and pasting the new values, and justify the diff in the
commit message.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT, TEN_GIGABIT
from repro.net.loss import BernoulliLoss
from repro.sim import DAEMON, LIBRARY, SPREAD
from repro.sim.cluster import SimCluster


def _digest_cluster(cluster: SimCluster) -> str:
    """Deterministic digest of one finished run's results (no event count)."""
    h = hashlib.sha256()
    emit = h.update

    def line(*parts) -> None:
        emit(" ".join(repr(p) for p in parts).encode("ascii"))
        emit(b"\n")

    line("now", cluster.sim.now)
    line("switch", cluster.switch.frames_received,
         cluster.switch.drops_partition, cluster.switch.drops_fault)
    for host_id in cluster.switch.host_ids:
        port = cluster.switch.port(host_id)
        line("port", host_id, port.frames_forwarded, port.bytes_forwarded,
             port.drops_overflow, port.drops_injected, port.max_queue_bytes)
    for pid in sorted(cluster.nodes):
        node = cluster.nodes[pid]
        s = node.participant.stats
        line("node", pid, s.tokens_handled, s.duplicate_tokens,
             s.messages_initiated, s.messages_sent_pre_token,
             s.messages_sent_post_token, s.retransmissions_sent,
             s.retransmissions_requested, s.data_received,
             s.data_duplicates, s.delivered, s.discarded,
             node.backlog, node.participant.local_aru,
             node.participant.delivered_upto, node.socket_drops,
             node.tokens_resent, node.nic.drops_overflow,
             node.nic.frames_sent, node.nic.bytes_sent)
    recorder = cluster.recorder
    for node_id in sorted(recorder.delivered_bytes):
        line("delivered", node_id, recorder.delivered_bytes[node_id],
             recorder.delivered_messages[node_id])
    for service in sorted(recorder._samples, key=lambda s: s.value):
        samples = recorder._samples[service]
        line("samples", service.value, len(samples))
        for sample in samples:
            line("s", sample)
    return h.hexdigest()


def _run(config, profile, spec, payload_size, service, offered_bps,
         duration_s=0.06, warmup_s=0.02, seed=7, loss=None):
    cluster = SimCluster(
        8, spec, profile, config,
        payload_size=payload_size, service=service, seed=seed, loss=loss,
    )
    cluster.inject_at_rate(offered_bps, duration_s)
    cluster.run(duration_s, warmup_s, offered_bps=offered_bps)
    return _digest_cluster(cluster), cluster.sim.event_count


#: scenario name -> (builder, expected results SHA-256, expected events).
SCENARIOS = {
    "accelerated_agreed_1g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=15, accelerated_window=10),
            SPREAD, GIGABIT, 1350, Service.AGREED, 400e6,
        ),
        "765e010ec4718a5dd4283166014fa79c5cf417cd3a302a6de338851bd644b46f",
        125_601,
    ),
    "original_safe_1g": (
        lambda: _run(
            ProtocolConfig.original_ring(personal_window=15),
            DAEMON, GIGABIT, 1350, Service.SAFE, 250e6,
        ),
        "88118978ca0740df574c9e9ee19987cf562e820d55110686d9f271a6b66927c9",
        76_274,
    ),
    "accelerated_packed_small_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(
                personal_window=20, accelerated_window=12, pack_messages=True,
            ),
            LIBRARY, TEN_GIGABIT, 200, Service.AGREED, 600e6,
        ),
        "5e99bbbb52ffe1bdcdaa695798376203e15d533d8814926ebfdd8c01b11cb474",
        524_895,
    ),
    "accelerated_large_payload_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=10, accelerated_window=6),
            LIBRARY, TEN_GIGABIT, 8850, Service.AGREED, 1500e6,
        ),
        "d7a113216dffaa3989d445aa572300cc84836e0b275958825226108bb0509700",
        112_149,
    ),
    # The next two pin the coalescing walk and the retransmission /
    # token-resend paths, which no scenario above reaches.
    "accelerated_jumbo_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(
                personal_window=20, accelerated_window=12,
                jumbo_datagram_bytes=8850,
            ),
            LIBRARY, TEN_GIGABIT, 1350, Service.AGREED, 5000e6,
        ),
        "59219cd26ae7a669a731abf8dd05fe708b5a6f0498a9484c3d89c30556360822",
        630_864,
    ),
    "accelerated_lossy_1g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=15, accelerated_window=10),
            SPREAD, GIGABIT, 1350, Service.SAFE, 300e6,
            loss=BernoulliLoss(0.02, seed=11),
        ),
        "193463e4d15f52b1b0419a66f4c74d752727bbeb28daaea2573ac5d352c38557",
        81_949,
    ),
}


@pytest.fixture(scope="module")
def runs():
    """Each scenario runs once for both of its tests."""
    cache = {}

    def run(name):
        if name not in cache:
            cache[name] = SCENARIOS[name][0]()
        return cache[name]

    return run


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fingerprint(name, runs):
    digest, _events = runs(name)
    assert digest == SCENARIOS[name][1], (
        "scenario %r fingerprint changed: got %s — a hot-path change "
        "altered observable simulation results" % (name, digest)
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_count(name, runs):
    _digest, events = runs(name)
    assert events == SCENARIOS[name][2], (
        "scenario %r now takes %d kernel events: if the results digest "
        "still matches, re-pin this integer and list old -> new in "
        "CHANGES.md" % (name, events)
    )
