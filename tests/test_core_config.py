"""Tests for ProtocolConfig and Service."""

from dataclasses import replace
import pytest

from repro.core import (
    ConfigurationError,
    Participant,
    PriorityMethod,
    ProtocolConfig,
    Ring,
    Service,
    initial_token,
)


def test_defaults_are_accelerated():
    config = ProtocolConfig()
    assert config.is_accelerated
    assert config.accelerated_window > 0


def test_original_ring_preset():
    config = ProtocolConfig.original_ring()
    assert not config.is_accelerated
    assert config.accelerated_window == 0
    assert config.priority_method is PriorityMethod.CONSERVATIVE


def test_accelerated_preset_uses_previous_round_horizon():
    # Under acceleration a received token's seq may cover messages still
    # in flight: the first handling requests nothing up to it.
    participant = Participant(1, Ring.of((1, 2)), ProtocolConfig())
    token = participant.on_token(replace(initial_token(), seq=4, aru=4)).token
    assert token.rtr == ()


def test_original_ring_accepts_overrides():
    config = ProtocolConfig.original_ring(personal_window=7)
    assert config.personal_window == 7
    assert config.accelerated_window == 0


def test_evolve_returns_modified_copy():
    base = ProtocolConfig()
    tweaked = replace(base, accelerated_window=0)
    assert tweaked.accelerated_window == 0
    assert base.accelerated_window != 0


@pytest.mark.parametrize(
    "field,value",
    [
        ("personal_window", -1),
        ("global_window", 0),
        ("accelerated_window", -2),
        ("max_seq_gap", 0),
        ("token_retransmit_timeout_s", 0.0),
    ],
)
def test_invalid_values_rejected(field, value):
    with pytest.raises(ConfigurationError):
        ProtocolConfig(**{field: value})


def test_service_stability_flag():
    assert Service.SAFE.requires_stability
    assert not Service.AGREED.requires_stability
    assert not Service.FIFO.requires_stability
    assert not Service.CAUSAL.requires_stability


def test_config_is_immutable():
    config = ProtocolConfig()
    with pytest.raises(Exception):
        config.personal_window = 3
