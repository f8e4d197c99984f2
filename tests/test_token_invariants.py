"""Invariants over the token stream itself.

Captures every token sent during loopback runs and checks the global
invariants the protocol maintains (DESIGN.md Section 5), under several
configurations and loss patterns.
"""

import pytest

from repro import LoopbackRing, PriorityMethod, ProtocolConfig, Service
from repro.core import participant as participant_module
from helpers import FirstTimeLoss, mixed_workload, record_token_handlings


def run_and_capture(config, seed=0, loss_p=0.0, pids=(1, 2, 3, 4), per_pid=30):
    loss = FirstTimeLoss(seed + 500, pids=pids, p=loss_p) if loss_p else None
    ring = LoopbackRing(list(pids), config, drop_data=loss)
    tokens = record_token_handlings(ring)
    for pid, payload, service in mixed_workload(seed, pids, per_pid):
        ring.submit(pid, payload, service)
    ring.run(max_steps=2_000_000)
    return ring, tokens


CONFIGS = [
    pytest.param(ProtocolConfig.original_ring(), id="original"),
    pytest.param(ProtocolConfig(), id="accelerated"),
    pytest.param(
        ProtocolConfig(priority_method=PriorityMethod.AGGRESSIVE),
        id="aggressive",
    ),
]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("loss_p", [0.0, 0.1])
def test_aru_never_exceeds_seq(config, loss_p):
    _ring, tokens = run_and_capture(config, seed=1, loss_p=loss_p)
    for _pid, _received, sent, _new, _retrans in tokens:
        assert sent.aru <= sent.seq, sent


@pytest.mark.parametrize("config", CONFIGS)
def test_seq_is_monotone_and_hop_increments(config):
    _ring, tokens = run_and_capture(config, seed=2)
    previous_seq = 0
    previous_hop = 0
    for _pid, _received, sent, _new, _retrans in tokens:
        assert sent.seq >= previous_seq
        assert sent.hop == previous_hop + 1
        previous_seq = sent.seq
        previous_hop = sent.hop


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("loss_p", [0.0, 0.08])
def test_fcc_within_global_window(config, loss_p):
    _ring, tokens = run_and_capture(config, seed=3, loss_p=loss_p)
    for _pid, _received, sent, _new, _retrans in tokens:
        assert 0 <= sent.fcc <= config.global_window, sent


@pytest.mark.parametrize("config", CONFIGS)
def test_new_messages_within_personal_window(config):
    _ring, tokens = run_and_capture(config, seed=4)
    for _pid, _received, _sent, new, _retrans in tokens:
        assert new <= config.personal_window


@pytest.mark.parametrize("config", CONFIGS)
def test_seq_gap_bounded(config, monkeypatch):
    monkeypatch.setattr(participant_module, "MAX_SEQ_GAP", 50)
    _ring, tokens = run_and_capture(config, seed=5, per_pid=60)
    for _pid, received, sent, _new, _retrans in tokens:
        # New seq never leads the received (global) aru by more than the
        # configured gap.
        assert sent.seq - received.aru <= 50 + config.personal_window


@pytest.mark.parametrize("loss_p", [0.0, 0.1])
def test_aru_catches_up_to_seq_eventually(loss_p):
    ring, tokens = run_and_capture(
        ProtocolConfig(), seed=6, loss_p=loss_p
    )
    final_sent = tokens[-1][2]
    assert final_sent.aru == final_sent.seq


def test_accelerated_aru_lags_under_steady_flow():
    # The Fig-7 mechanism: while traffic flows under acceleration, the
    # token aru typically trails seq (post-token messages not yet seen
    # by the successor).
    _ring, tokens = run_and_capture(
        ProtocolConfig(accelerated_window=20), seed=7, per_pid=50
    )
    busy = [
        (received, sent)
        for _pid, received, sent, new, _r in tokens
        if new > 0
    ]
    lagging = sum(1 for _received, sent in busy if sent.aru < sent.seq)
    assert lagging > len(busy) * 0.5, (
        "aru should lag seq on most busy accelerated rounds (%d/%d)"
        % (lagging, len(busy))
    )


def test_original_aru_tracks_seq_without_loss():
    _ring, tokens = run_and_capture(
        ProtocolConfig.original_ring(), seed=8, per_pid=50
    )
    for _pid, _received, sent, _new, _retrans in tokens:
        assert sent.aru == sent.seq, (
            "in the loss-free original protocol every message reflected "
            "in the token was received before it: %r" % (sent,)
        )


@pytest.mark.parametrize("config", CONFIGS)
def test_rtr_requests_only_for_real_gaps_without_loss(config):
    _ring, tokens = run_and_capture(config, seed=9, loss_p=0.0)
    for _pid, _received, sent, _new, _retrans in tokens:
        assert sent.rtr == (), "spurious retransmission request: %r" % (sent,)
