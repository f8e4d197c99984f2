"""Golden fingerprints: the hot-path optimizations must not move a bit.

Each scenario runs a small canonical simulation and folds *everything
observable* into one SHA-256 — every latency sample, every per-node
protocol counter, every switch/NIC drop counter, the exact kernel event
count and final simulated time.  The expected digests were computed
before the zero-copy/coalescing/kernel rewrites landed; if any of those
changes alters a single float anywhere in a run, the digest moves and
this test names the scenario that diverged.

This is the same gate PR 1 used for the first kernel fast-path: the
optimizations are allowed to make the simulator *faster*, never
*different*.  When a deliberate semantic change lands (new default, new
event source), recompute the digests by calling each scenario builder in
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
    """Deterministic digest of one finished run's full observable state."""
    h = hashlib.sha256()
    emit = h.update

    def line(*parts) -> None:
        emit(" ".join(repr(p) for p in parts).encode("ascii"))
        emit(b"\n")

    line("now", cluster.sim.now)
    line("events", cluster.sim.event_count)
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
             node.tokens_resent, node.nic.drops_overflow)
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
         duration_s=0.06, warmup_s=0.02, seed=7, loss=None) -> str:
    cluster = SimCluster(
        8, spec, profile, config,
        payload_size=payload_size, service=service, seed=seed, loss=loss,
    )
    cluster.inject_at_rate(offered_bps, duration_s)
    cluster.run(duration_s, warmup_s, offered_bps=offered_bps)
    return _digest_cluster(cluster)


#: scenario name -> (builder, expected SHA-256).
SCENARIOS = {
    "accelerated_agreed_1g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=15, accelerated_window=10),
            SPREAD, GIGABIT, 1350, Service.AGREED, 400e6,
        ),
        "c4e3479e51b639cee31bf6bb060c79016c24ec04b7834f68897fb472546c627f",
    ),
    "original_safe_1g": (
        lambda: _run(
            ProtocolConfig.original_ring(personal_window=15),
            DAEMON, GIGABIT, 1350, Service.SAFE, 250e6,
        ),
        "1e370bfba2d5f83de5bb5a41b7fc8f7f60df45a2e09a6004ba27145fac8450dd",
    ),
    "accelerated_packed_small_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(
                personal_window=20, accelerated_window=12, pack_messages=True,
            ),
            LIBRARY, TEN_GIGABIT, 200, Service.AGREED, 600e6,
        ),
        "d46a904afa8f4cf886d463446b73096590dbfcffeb1cb00f009c5dbe845096ad",
    ),
    "accelerated_large_payload_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=10, accelerated_window=6),
            LIBRARY, TEN_GIGABIT, 8850, Service.AGREED, 1500e6,
        ),
        "33ea9ffff4b53f14b9d14f30b996f228788bedfb356e2454ed8e4b4d5e8274c8",
    ),
    # The next two were minted at the commit before the shared driver
    # core (repro.core.driver) replaced the per-substrate action walks:
    # they pin the coalescing walk and the retransmission / token-resend
    # paths, which no scenario above reaches.
    "accelerated_jumbo_10g": (
        lambda: _run(
            ProtocolConfig.accelerated(
                personal_window=20, accelerated_window=12,
                jumbo_datagram_bytes=8850,
            ),
            LIBRARY, TEN_GIGABIT, 1350, Service.AGREED, 5000e6,
        ),
        "f05851f93c7c91393340164122a2f3ebd3ba118a3ecee14ae0fbc68917060a6e",
    ),
    "accelerated_lossy_1g": (
        lambda: _run(
            ProtocolConfig.accelerated(personal_window=15, accelerated_window=10),
            SPREAD, GIGABIT, 1350, Service.SAFE, 300e6,
            loss=BernoulliLoss(0.02, seed=11),
        ),
        "619082f3f5c227f3c7bc190e7f5559cfcefc0d937645eca87ebc098e722adf76",
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_fingerprint(name):
    build, expected = SCENARIOS[name]
    digest = build()
    assert digest == expected, (
        "scenario %r fingerprint changed: got %s — a hot-path change "
        "altered observable simulation results" % (name, digest)
    )
