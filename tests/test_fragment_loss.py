"""Per-fragment loss: the paper's large-datagram caveat, quantified."""

import pytest

from repro.core import ProtocolConfig, Service
from repro.net import PerFragmentLoss, TEN_GIGABIT, Frame, Traffic
from repro.sim import LIBRARY, run_point


def frame_of(size):
    return Frame(src=0, dst=None, traffic=Traffic.DATA, size=size, payload=None)


def test_single_fragment_loss_rate_matches_p():
    loss = PerFragmentLoss(0.05, seed=1)
    drops = sum(loss(frame_of(1350)) for _i in range(4000))
    assert drops / 4000 == pytest.approx(0.05, abs=0.012)


def test_large_datagrams_amplify_loss():
    # 8922-byte datagrams span 6 fragments: datagram loss approx
    # 1 - (1 - p)^6, about 6x the single-fragment rate for small p.
    p = 0.02
    small_loss = PerFragmentLoss(p, seed=2)
    large_loss = PerFragmentLoss(p, seed=2)
    n = 5000
    small_rate = sum(small_loss(frame_of(1350)) for _i in range(n)) / n
    large_rate = sum(large_loss(frame_of(8922)) for _i in range(n)) / n
    expected_large = 1 - (1 - p) ** 6
    assert large_rate == pytest.approx(expected_large, abs=0.02)
    assert large_rate > small_rate * 3


def test_token_spared_by_default():
    loss = PerFragmentLoss(1.0, seed=3)
    token_frame = Frame(src=0, dst=1, traffic=Traffic.TOKEN, size=72,
                        payload=None)
    assert not loss(token_frame)
    assert loss(frame_of(1350))


def test_invalid_probability_rejected():
    with pytest.raises(ValueError):
        PerFragmentLoss(1.5)


def test_protocol_absorbs_fragment_loss_on_large_payloads():
    # End-to-end: 8850-byte payloads under per-fragment loss still
    # deliver the offered load via retransmission, at elevated latency.
    clean = run_point(
        ProtocolConfig(personal_window=40, accelerated_window=30,
                       global_window=400),
        LIBRARY, TEN_GIGABIT, 2000e6,
        payload_size=8850, duration_s=0.08, warmup_s=0.025,
    )
    lossy = run_point(
        ProtocolConfig(personal_window=40, accelerated_window=30,
                       global_window=400),
        LIBRARY, TEN_GIGABIT, 2000e6,
        payload_size=8850, duration_s=0.08, warmup_s=0.025,
        loss=PerFragmentLoss(0.001, seed=4),
    )
    assert lossy.retransmissions > 0
    assert lossy.achieved_bps == pytest.approx(2000e6, rel=0.15)
    assert lossy.latency.mean_s >= clean.latency.mean_s
