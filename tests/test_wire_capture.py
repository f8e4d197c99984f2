"""``.rcap`` capture layer: writer/reader, taps in both worlds, decoder.

The point under test is the tentpole claim: the simulated switch and the
real UDP transport write the *same* capture format, so one decoder
serves both and the committed reference samples stay readable.
"""

import os

import pytest

from repro.core import ProtocolConfig, Service, Token
from repro.core.messages import DataMessage
from repro.emulation import EmulatedRing
from repro.net import GIGABIT
from repro.sim import LIBRARY
from repro.sim.cluster import SimCluster
from repro.sim.evs_node import SimEVSCluster
from repro.wire import codec
from repro.wire.capture import (
    MULTICAST,
    TRAFFIC_DATA,
    TRAFFIC_TOKEN,
    WORLD_EMULATION,
    WORLD_SIM,
    CaptureError,
    CaptureReader,
    CaptureWriter,
    SimCaptureTap,
)
from repro.wire.analyzer import render_capture, render_summary, summarize_capture

SAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "bench_results", "captures",
)


def data_message(seq=1):
    return DataMessage(seq=seq, pid=0, round=1, service=Service.AGREED,
                       payload=b"capture", payload_size=7, submitted_at=0.5)


# -- writer / reader ----------------------------------------------------------

def test_capture_roundtrip(tmp_path):
    path = str(tmp_path / "round.rcap")
    token = Token(ring_id=3, seq=9, aru=9)
    with CaptureWriter(path, WORLD_SIM, label="unit test") as writer:
        assert writer.write_message(0.25, 1, None, TRAFFIC_DATA,
                                    data_message(), ring_id=3)
        assert writer.write_message(0.5, 1, 2, TRAFFIC_TOKEN, token)
        assert writer.records_written == 2

    reader = CaptureReader(path)
    assert reader.world_name == "sim"
    assert reader.label == "unit test"
    records = list(reader)
    assert not reader.truncated_tail
    assert [r.traffic for r in records] == [TRAFFIC_DATA, TRAFFIC_TOKEN]
    assert records[0].dst == MULTICAST
    assert records[0].timestamp == 0.25
    first = records[0].decode()
    assert first.message == data_message()
    assert first.ring_id == 3
    assert records[1].decode().message == token


def test_capture_unencodable_payload_is_skipped_not_fatal(tmp_path):
    path = str(tmp_path / "skip.rcap")

    class SimOnly:
        pass

    with CaptureWriter(path, WORLD_SIM) as writer:
        assert not writer.write_message(0.0, 0, None, TRAFFIC_DATA, SimOnly())
        assert writer.write_message(0.1, 0, None, TRAFFIC_DATA, data_message())
        assert writer.records_skipped == 1
        assert writer.records_written == 1
    assert len(list(CaptureReader(path))) == 1


def test_capture_truncated_tail_detected(tmp_path):
    path = str(tmp_path / "trunc.rcap")
    with CaptureWriter(path, WORLD_EMULATION) as writer:
        writer.write_message(0.0, 0, None, TRAFFIC_DATA, data_message(1))
        writer.write_message(1.0, 1, None, TRAFFIC_DATA, data_message(2))
    with open(path, "rb") as handle:
        blob = handle.read()
    cut = str(tmp_path / "cut.rcap")
    with open(cut, "wb") as handle:
        handle.write(blob[:-10])  # crash mid-record

    reader = CaptureReader(cut)
    records = list(reader)
    assert reader.truncated_tail
    assert len(records) == 1  # the complete record before the tear survives
    assert records[0].decode().message == data_message(1)
    lines = list(render_capture(cut))
    assert any("mid-record" in line for line in lines)


def test_capture_rejects_non_rcap_files(tmp_path):
    bogus = str(tmp_path / "bogus.rcap")
    with open(bogus, "wb") as handle:
        handle.write(b"not a capture at all")
    with pytest.raises(CaptureError):
        CaptureReader(bogus)


def test_corrupt_record_renders_as_undecodable(tmp_path):
    path = str(tmp_path / "corrupt.rcap")
    with CaptureWriter(path, WORLD_SIM) as writer:
        writer.write(0.0, 0, None, TRAFFIC_DATA, b"\x00" * 30)
        writer.write_message(0.1, 0, None, TRAFFIC_DATA, data_message())
    lines = list(render_capture(path))
    assert any("UNDECODABLE" in line for line in lines)
    summary = summarize_capture(path)
    assert summary["undecodable"] == 1
    assert summary["records"] == 2


# -- taps: the same format out of both worlds ---------------------------------

def test_sim_switch_tap_produces_decodable_capture(tmp_path):
    path = str(tmp_path / "sim.rcap")
    config = ProtocolConfig.accelerated(personal_window=4,
                                        accelerated_window=2)
    with CaptureWriter(path, WORLD_SIM, label="tap test") as writer:
        cluster = SimCluster(4, GIGABIT, LIBRARY, config, seed=1)
        cluster.attach_capture(writer)
        cluster.inject_at_rate(40e6, 0.005)
        cluster.run(0.005, 0.0, offered_bps=40e6)
    summary = summarize_capture(path)
    assert summary["world"] == "sim"
    assert summary["records"] > 0
    assert summary["undecodable"] == 0
    assert summary["records_by_kind"].get("token", 0) > 0
    assert summary["records_by_kind"].get("data", 0) > 0
    # The sim models payload bytes (payload=None, payload_size=1350), so
    # a captured data frame is exactly the wire header; the frame size
    # the sim charges is that header plus the modeled payload — the size
    # model and the codec agree record by record.
    for record in CaptureReader(path):
        decoded = record.decode()
        if record.traffic == TRAFFIC_DATA:
            assert len(record.blob) == codec.DATA_HEADER_SIZE
            assert (decoded.message.payload_size + len(record.blob)
                    == decoded.message.payload_size + LIBRARY.header_bytes)
        else:
            # Tokens carry everything on the wire: blob == modeled size.
            assert len(record.blob) == decoded.message.size


def test_sim_switch_tap_on_a_membership_cluster(tmp_path):
    """EVS ring frames carry ``(ring_id, message)``: the tap unwraps the
    pair and stamps data frames with the ring id.  Control and gossip
    frames carry the bare message."""
    path = str(tmp_path / "evs.rcap")
    with CaptureWriter(path, WORLD_SIM, label="tap test") as writer:
        cluster = SimEVSCluster(3, GIGABIT, LIBRARY, gossip=True,
                                gossip_seed=1)
        cluster.switch.set_capture(SimCaptureTap(cluster.sim, writer))
        cluster.run_until_converged()
        for _ in range(3):
            cluster.nodes[0].submit(None)
        cluster.run_for(0.01)
    assert writer.records_skipped == 0
    ring_id = cluster.nodes[0].process.ring.ring_id
    ring_ids = {}
    for record in CaptureReader(path):
        decoded = record.decode()
        ring_ids.setdefault(decoded.kind, set()).add(decoded.ring_id)
    assert ring_ids["data"] == {ring_id}
    assert ring_id in ring_ids["token"]
    assert "join" in ring_ids and "gossip-ping" in ring_ids


def test_emulation_tap_produces_decodable_capture(tmp_path):
    path = str(tmp_path / "emu.rcap")
    with CaptureWriter(path, WORLD_EMULATION, label="tap test") as writer:
        with EmulatedRing(3, capture=writer) as ring:
            for pid in range(3):
                ring.submit(pid, ("cap", pid), Service.AGREED)
            ring.collect_deliveries(expected_per_node=3, timeout_s=20.0)
    summary = summarize_capture(path)
    assert summary["world"] == "emulation"
    assert summary["undecodable"] == 0
    assert summary["records_by_kind"].get("token", 0) > 0
    assert summary["records_by_kind"].get("data", 0) >= 3


# -- the committed reference samples ------------------------------------------

@pytest.mark.parametrize("name,world", [
    ("sim_sample.rcap", "sim"),
    ("emu_sample.rcap", "emulation"),
])
def test_committed_samples_decode(name, world):
    path = os.path.join(SAMPLES_DIR, name)
    assert os.path.exists(path), "reference capture %s missing" % name
    summary = summarize_capture(path)
    assert summary["world"] == world
    assert summary["records"] > 0
    assert summary["undecodable"] == 0
    assert not summary["truncated_tail"]
    assert summary["records_by_kind"].get("token", 0) > 0
    assert summary["records_by_kind"].get("data", 0) > 0
    lines = list(render_capture(path, limit=5))
    assert lines[0].startswith("# rcap world=%s" % world)
    assert any("token" in line for line in lines[1:])
    assert list(render_summary(path))


def test_cli_decode_command_renders_samples(capsys):
    from repro.cli import main

    path = os.path.join(SAMPLES_DIR, "sim_sample.rcap")
    assert main(["decode", path, "--limit", "3"]) == 0
    out = capsys.readouterr().out
    assert "# rcap world=sim" in out
    assert "suppressed by --limit" in out

    assert main(["decode", path, "--summary"]) == 0
    out = capsys.readouterr().out
    assert "record(s)" in out
