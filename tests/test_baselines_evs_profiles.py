"""Tests for the sequencer baseline, EVS configuration types, and
implementation cost profiles."""

from dataclasses import replace
import pytest

from repro.baselines import comparators, run_sequencer_point
from repro.evs import AppMessage, ConfigChange, Configuration, ConfigurationKind
from repro.net import GIGABIT, TEN_GIGABIT
from repro.sim import DAEMON, LIBRARY, PROFILES, SPREAD


# ---------------------------------------------------------------------------
# Cost profiles
# ---------------------------------------------------------------------------

def test_profiles_registry():
    assert set(PROFILES) == {"library", "daemon", "spread"}


def test_overhead_ordering_library_daemon_spread():
    # The paper's premise: library < daemon < spread in per-message cost.
    for size in (1350, 8850):
        costs = {
            p.name: p.data_recv_cost(size) + p.data_send_cost(size) / 8
            + p.deliver_cost(size)
            for p in (LIBRARY, DAEMON, SPREAD)
        }
        assert costs["library"] < costs["daemon"] < costs["spread"], costs


def test_header_sizes_ordered():
    assert LIBRARY.header_bytes < DAEMON.header_bytes < SPREAD.header_bytes
    # Spread's 150-byte headers keep 1350B payloads within a 1500B MTU.
    assert SPREAD.header_bytes + 1350 <= 1500


def test_per_byte_costs_amortize():
    # Big messages cost less CPU per byte than small ones.
    for profile in (LIBRARY, DAEMON, SPREAD):
        small = profile.data_recv_cost(1350) / 1350
        large = profile.data_recv_cost(8850) / 8850
        assert large < small


def test_profile_with_overrides():
    tweaked = replace(LIBRARY, deliver_cpu_s=1.0)
    assert tweaked.deliver_cpu_s == 1.0
    assert LIBRARY.deliver_cpu_s != 1.0


# ---------------------------------------------------------------------------
# EVS configuration types
# ---------------------------------------------------------------------------

def test_configuration_constructors_sort_members():
    config = Configuration.regular(5, (3, 1, 2))
    assert config.members == (1, 2, 3)
    assert config.is_regular
    transitional = Configuration.transitional(5, [2, 1])
    assert transitional.kind is ConfigurationKind.TRANSITIONAL
    assert not transitional.is_regular


def test_configuration_membership_test():
    config = Configuration.regular(1, (1, 2))
    assert 1 in config and 3 not in config


def test_app_message_defaults():
    message = AppMessage(ring_id=1, seq=2, sender=3, payload="x", safe=False)
    assert not message.transitional


def test_config_change_wraps_configuration():
    config = Configuration.regular(9, (1,))
    change = ConfigChange(config)
    assert change.configuration is config


# ---------------------------------------------------------------------------
# Sequencer baseline
# ---------------------------------------------------------------------------

def test_sequencer_delivers_offered_load():
    result = run_sequencer_point(
        LIBRARY, GIGABIT, 200e6, n_nodes=4,
        duration_s=0.05, warmup_s=0.015,
    )
    assert not result.saturated
    assert result.achieved_bps == pytest.approx(200e6, rel=0.15)
    assert result.latency.count > 100


def test_sequencer_latency_grows_with_load():
    low = run_sequencer_point(SPREAD, TEN_GIGABIT, 100e6, n_nodes=4,
                              duration_s=0.05, warmup_s=0.015)
    high = run_sequencer_point(SPREAD, TEN_GIGABIT, 900e6, n_nodes=4,
                               duration_s=0.05, warmup_s=0.015)
    assert high.latency.mean_s > low.latency.mean_s


def test_sequencer_saturates_on_coordinator_cpu():
    result = run_sequencer_point(
        SPREAD, TEN_GIGABIT, 3000e6, n_nodes=8,
        duration_s=0.06, warmup_s=0.02,
    )
    assert result.saturated or result.achieved_bps < 2500e6


def test_coordinator_socket_buffer_holds_its_cap(monkeypatch):
    # Node 0's own submissions share its socket buffer with the remote
    # ones: at the end of a saturated run every inbox holds exactly the
    # bytes its buffer counts, and no more than the buffer admits.
    hosts = []

    class Recorded(comparators.BaselineHost):
        def __init__(self, *args):
            super().__init__(*args)
            hosts.append(self)

    monkeypatch.setattr(comparators, "BaselineHost", Recorded)
    result = run_sequencer_point(
        SPREAD, TEN_GIGABIT, 3000e6, n_nodes=8,
        duration_s=0.06, warmup_s=0.02,
    )
    assert result.socket_drops > 0
    for host in hosts:
        queued = sum(frame.wire for frame in host.inbox)
        assert queued == host._inbox_bytes, host.pid
        assert queued <= TEN_GIGABIT.socket_buffer_bytes, host.pid


def test_sequencer_zero_rate():
    result = run_sequencer_point(LIBRARY, GIGABIT, 0.0, n_nodes=2,
                                 duration_s=0.01, warmup_s=0.0)
    assert result.achieved_bps == 0.0
