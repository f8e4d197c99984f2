"""Tests for ProtocolConfig and Service."""

from dataclasses import replace
import pytest

from repro.core import ConfigurationError, PriorityMethod, ProtocolConfig, Service


def test_defaults_are_accelerated():
    config = ProtocolConfig()
    assert config.is_accelerated
    assert config.accelerated_window > 0


def test_original_ring_preset():
    config = ProtocolConfig.original_ring()
    assert not config.is_accelerated
    assert config.accelerated_window == 0
    assert config.priority_method is PriorityMethod.CONSERVATIVE
    assert config.request_current_round


def test_accelerated_preset_uses_previous_round_horizon():
    config = ProtocolConfig.accelerated()
    assert not config.request_current_round


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
