"""Lifecycle tracing: determinism, codec round-trips, and cross-checks.

Three layers:

* determinism — the same seeded sim run traced twice produces
  byte-identical ``.rtrace`` files (the trace is a pure function of the
  seed, like the event stream itself);
* codec properties — arbitrary ``TraceRecord`` streams survive the
  ``.rtrace`` codec exactly (hypothesis);
* golden cross-check — ``analyze`` on a traced run must agree with the
  independent :class:`repro.sim.trace.RoundTracer` on token-round
  statistics, and its telescoping per-stage sums must reconcile with
  the end-to-end Agreed latency within the issue's 1% gate.
"""

import dataclasses
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AcceleratedWindowTuner,
    ProtocolConfig,
    Service,
    TunerConfig,
)
from repro.net import GIGABIT
from repro.obs.lifecycle import (
    AUX_COALESCED,
    AUX_RETRANSMISSION,
    STAGE_DELIVERED_AGREED,
    STAGE_DELIVERED_SAFE,
    STAGE_MULTICAST,
    STAGE_ORDERED,
    STAGE_ORIGINATED,
    STAGE_RECEIVED,
    STAGE_TOKEN_GRANTED,
    STAGE_TOKEN_HANDLED,
)
from repro.obs.report import analyze
from repro.sim import LIBRARY
from repro.sim.cluster import SimCluster
from repro.sim.latency import LatencyRecorder
from repro.sim.trace import RoundTracer
from repro.wire.capture import WORLD_SIM
from repro.wire.tracefmt import (
    CLOCK_SIM,
    RECORD_STRUCT,
    LoadedTrace,
    TraceFormatError,
    TraceReader,
    TraceRecord,
    TraceWriter,
    load_trace,
)

EXAMPLES = settings(
    max_examples=int(os.environ.get("REPRO_WIRE_EXAMPLES", "25")),
    deadline=None,
)


def _traced_run(seed=1, n_nodes=4, duration_s=0.01, rate_bps=200e6,
                round_tracer=False):
    """Small seeded run with a lifecycle tracer; warmup 0, packing off."""
    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2
    )
    cluster = SimCluster(n_nodes, GIGABIT, LIBRARY, config, seed=seed)
    rounds = RoundTracer(cluster) if round_tracer else None
    tracer = cluster.attach_tracer(label="test seed=%d" % seed)
    cluster.inject_at_rate(rate_bps, duration_s)
    result = cluster.run(duration_s, 0.0, offered_bps=rate_bps)
    return cluster, result, tracer, rounds


# -- determinism -------------------------------------------------------------

def test_same_seed_gives_byte_identical_trace(tmp_path):
    _, _, first, _ = _traced_run(seed=3)
    _, _, second, _ = _traced_run(seed=3)
    assert len(first) == len(second) > 100
    path_a = first.write_binary(str(tmp_path / "a.rtrace"))
    path_b = second.write_binary(str(tmp_path / "b.rtrace"))
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()


def test_different_seed_gives_different_trace():
    _, _, first, _ = _traced_run(seed=3)
    _, _, second, _ = _traced_run(seed=4)
    assert first.to_records() != second.to_records()


def test_tracer_does_not_perturb_the_run():
    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2
    )

    def run(traced):
        cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=5)
        if traced:
            cluster.attach_tracer()
        cluster.inject_at_rate(200e6, 0.01)
        result = cluster.run(0.01, 0.0, offered_bps=200e6)
        return cluster.sim.event_count, result.latency.count

    assert run(traced=False) == run(traced=True)


# -- codec round-trips -------------------------------------------------------

records_strategy = st.lists(
    st.builds(
        TraceRecord,
        t=st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False),
        stage=st.integers(0, 255),
        node=st.integers(-1, 2 ** 31 - 1),
        origin=st.integers(-1, 2 ** 31 - 1),
        seq=st.integers(0, 2 ** 32 - 1),
        aux=st.integers(0, 2 ** 32 - 1),
    ),
    max_size=50,
)


def _packed(records):
    """Records packed as the lifecycle tracer packs its stamps."""
    return b"".join(
        RECORD_STRUCT.pack(r.t, r.stage, 0, r.node, r.origin, r.seq, r.aux)
        for r in records)


@EXAMPLES
@given(records=records_strategy, label=st.text(max_size=40))
def test_binary_trace_roundtrip(tmp_path_factory, records, label):
    path = str(tmp_path_factory.mktemp("rt") / "t.rtrace")
    with TraceWriter(path, WORLD_SIM, CLOCK_SIM, label) as writer:
        writer.write_packed(_packed(records))
    reader = TraceReader(path)
    assert list(reader) == records
    assert reader.label == label
    assert not reader.truncated_tail


def test_written_trace_loads_back_its_records(tmp_path):
    _, _, tracer, _ = _traced_run()
    loaded = load_trace(tracer.write_binary(str(tmp_path / "run.rtrace")))
    assert loaded.records == tracer.to_records()
    assert loaded.world_name == "sim"


def test_load_trace_rejects_anything_but_rtrace(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"rtrace": 1, "world": "sim"}\n')
    with pytest.raises(TraceFormatError):
        load_trace(str(path))


def test_truncated_tail_is_detected_not_fatal(tmp_path):
    path = str(tmp_path / "t.rtrace")
    with TraceWriter(path, WORLD_SIM, CLOCK_SIM) as writer:
        writer.write_packed(_packed([
            TraceRecord(1.0, STAGE_ORIGINATED, 0, 0, 1, 0),
            TraceRecord(2.0, STAGE_ORDERED, 0, 0, 1, 0),
        ]))
    with open(path, "ab") as handle:
        handle.write(b"\x00" * 7)  # a crashed writer's partial record
    reader = TraceReader(path)
    records = list(reader)
    assert len(records) == 2
    assert reader.truncated_tail
    assert load_trace(path).truncated_tail


@pytest.mark.parametrize("samples", [list(range(100)), [1, 2]])
def test_trace_percentiles_follow_the_latency_recorder(samples):
    """``trace-analyze`` and ``LatencyRecorder`` summarize one set of
    latencies alike (one percentile rule)."""
    records = []
    recorder = LatencyRecorder()
    for seq, latency in enumerate(samples, 1):
        for stage in (STAGE_ORIGINATED, STAGE_TOKEN_GRANTED,
                      STAGE_MULTICAST, STAGE_ORDERED):
            records.append(TraceRecord(0.0, stage, 0, 0, seq, 0))
        records.append(TraceRecord(float(latency), STAGE_DELIVERED_AGREED,
                                   0, 0, seq, 0))
        recorder.record(0, Service.AGREED, 0.0, float(latency), 0)
    trace = LoadedTrace("sim", "sim", "", records, False)
    assert analyze(trace)["end_to_end"]["agreed"] == \
        dataclasses.asdict(recorder.summary(Service.AGREED))


# -- golden cross-check ------------------------------------------------------

def test_trace_analysis_cross_checks_round_tracer_and_latency():
    _, result, tracer, rounds = _traced_run(
        seed=1, duration_s=0.02, round_tracer=True
    )
    report = analyze(load_from_tracer(tracer))

    # Every delivery chain must be complete and telescope exactly.
    recon = report["reconciliation"]
    assert recon["chains"] == result.latency.count > 50
    assert recon["error_frac"] < 0.01  # the issue's acceptance gate
    assert recon["error_frac"] < 1e-9  # in the sim it is exact

    # End-to-end agreed latency from the trace == the latency recorder.
    agreed = report["end_to_end"]["agreed"]
    assert agreed["count"] == result.latency.count
    assert agreed["mean_s"] == pytest.approx(result.latency.mean_s, rel=1e-9)

    # Token-round statistics match the independent RoundTracer: a second
    # set of observers on the same participant stages, with its own clock
    # reads and its own aggregation.
    trace_rounds = report["token_rounds"]
    assert trace_rounds["mean_round_s"] == pytest.approx(
        rounds.mean_round_s(), rel=1e-9
    )
    assert trace_rounds["overlap_fraction"] == pytest.approx(
        rounds.overlap_fraction(), rel=1e-9
    )
    assert trace_rounds["handlings"] == sum(
        len(times) for times in rounds.handle_times.values()
    )
    assert trace_rounds["new_messages"] == sum(rounds.new_messages.values())
    assert trace_rounds["post_token_sends"] == sum(
        rounds.post_token_sends.values()
    )


def test_tuner_round_tracer_and_lifecycle_tracer_share_one_cluster():
    config = ProtocolConfig.accelerated(
        personal_window=4, accelerated_window=2
    )
    cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=2)
    tuners = [
        AcceleratedWindowTuner(node.participant, TunerConfig(epoch_rounds=4))
        for node in cluster.nodes.values()
    ]
    rounds = RoundTracer(cluster)
    tracer = cluster.attach_tracer()
    cluster.inject_at_rate(200e6, 0.01)
    cluster.run(0.01, 0.0, offered_bps=200e6)

    handlings = [node.participant.stats.tokens_handled
                 for node in cluster.nodes.values()]
    assert min(handlings) > 8
    assert [t.epochs for t in tuners] == [h // 4 for h in handlings]
    assert [len(rounds.handle_times[pid]) for pid in cluster.nodes] == handlings
    token_rounds = analyze(load_from_tracer(tracer))["token_rounds"]
    assert token_rounds["handlings"] == sum(handlings)
    assert token_rounds["mean_round_s"] == pytest.approx(
        rounds.mean_round_s(), rel=1e-9
    )


def test_stage_counts_are_consistent():
    cluster, result, tracer, _ = _traced_run()
    counts = {}
    for record in tracer.to_records():
        counts[record.stage] = counts.get(record.stage, 0) + 1

    def stat(name):
        return sum(
            getattr(node.participant.stats, name)
            for node in cluster.nodes.values()
        )

    # Participant-side stages stamp at the exact point the matching
    # stats counter increments, so these are equalities.
    initiated = stat("messages_initiated")
    assert counts[STAGE_ORIGINATED] == initiated > 0
    assert counts[STAGE_TOKEN_GRANTED] == initiated
    assert counts[STAGE_RECEIVED] == stat("data_received")
    assert counts[STAGE_TOKEN_HANDLED] == stat("tokens_handled")

    # The delivery hook packs the ordered/delivered pair in one call,
    # and fires at the same instant the latency recorder samples.
    assert counts[STAGE_ORDERED] == (
        counts.get(STAGE_DELIVERED_AGREED, 0)
        + counts.get(STAGE_DELIVERED_SAFE, 0)
    )
    assert counts[STAGE_ORDERED] == result.latency.count

    # Driver-side stamps trail the participant stats by whatever was
    # still in flight when the sim clock ran out: bounded by one token
    # handling's send window per node and one delivery batch per node.
    slack = 4 * len(cluster.ring)
    retransmissions = stat("retransmissions_sent")
    assert 0 <= initiated + retransmissions - counts[STAGE_MULTICAST] <= slack
    assert 0 <= stat("delivered") - counts[STAGE_ORDERED] <= slack


def test_retransmissions_keep_their_flag_under_coalescing():
    """A retransmission answered into a jumbo batch is still stamped as
    one: the flag rides each message through the driver's coalescing
    walk instead of being reset when the batch flushes."""
    from repro.net.loss import BernoulliLoss

    config = ProtocolConfig.accelerated(
        personal_window=12, accelerated_window=8, jumbo_datagram_bytes=8850,
    )
    cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=5,
                         loss=BernoulliLoss(0.03, seed=9, spare_token=True))
    tracer = cluster.attach_tracer()
    # Injection stops at a third of the run: by the end every answered
    # request has left the NIC, so stamps and stats counters agree.
    cluster.inject_at_rate(600e6, 0.01)
    cluster.run(0.03, 0.0, offered_bps=600e6)
    multicasts = [r for r in tracer.to_records()
                  if r.stage == STAGE_MULTICAST]
    flagged = [r for r in multicasts if r.aux & AUX_RETRANSMISSION]
    retransmissions = sum(
        node.participant.stats.retransmissions_sent
        for node in cluster.nodes.values()
    )
    assert len(flagged) == retransmissions > 0
    # The case only bites when retransmissions actually rode in batches.
    assert any(r.aux & AUX_COALESCED for r in flagged)


def test_emulation_tracer_over_real_sockets(tmp_path):
    from repro.core import Service
    from repro.emulation import EmulatedRing

    ring = EmulatedRing(3)
    tracer = ring.attach_tracer(label="emu trace test")
    with ring:
        for pid in range(3):
            for i in range(5):
                ring.submit(pid, (pid, i), Service.AGREED)
        ring.collect_deliveries(expected_per_node=15, timeout_s=20.0)
    records = tracer.to_records()
    stages = {record.stage for record in records}
    assert STAGE_TOKEN_GRANTED in stages
    assert STAGE_MULTICAST in stages
    assert STAGE_RECEIVED in stages
    assert STAGE_ORDERED in stages
    assert STAGE_DELIVERED_AGREED in stages
    assert STAGE_TOKEN_HANDLED in stages
    # Wall-clock timestamps are epoch-relative and sane: every stamp
    # lands inside the run's wall-clock span.
    assert all(0.0 <= record.t < 60.0 for record in records)
    # One thread runs every node and writes every record, so the stages
    # stamped as they are written (packed, coalesced, token_granted,
    # multicast, received, delivered_*, token_handled) appear in
    # nondecreasing time across all nodes.  ``originated`` carries the
    # submit instant and ``ordered`` its run's earlier ``t_ordered``.
    stamped = [record.t for record in records
               if record.stage not in (STAGE_ORIGINATED, STAGE_ORDERED)]
    assert len(stamped) > len(records) // 2
    assert stamped == sorted(stamped)
    # Each delivery packs its ordered/delivered pair atomically, and
    # every node delivered all 15 messages.
    ordered = [r for r in records if r.stage == STAGE_ORDERED]
    delivered = [r for r in records if r.stage == STAGE_DELIVERED_AGREED]
    assert len(ordered) == len(delivered) >= 45
    # The analyzer accepts the wall-clock flavor end to end.
    path = tracer.write_binary(str(tmp_path / "emu.rtrace"))
    report = analyze(load_trace(path))
    assert report["world"] == "emulation"
    assert report["clock"] == "wall"
    assert report["deliveries"] >= 45


def load_from_tracer(tracer):
    """An in-memory LoadedTrace (no file round-trip needed)."""
    from repro.wire.tracefmt import LoadedTrace

    return LoadedTrace(
        world_name="sim", clock_name="sim", label=tracer.label,
        records=tracer.to_records(), truncated_tail=False,
    )
