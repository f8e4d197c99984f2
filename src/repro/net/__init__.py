"""Discrete-event network substrate.

Models the testbed the paper ran on: hosts with line-rate NICs attached to
a store-and-forward switch with finite per-port buffers, supporting
unicast and multicast datagrams, with seeded loss injection.

Public surface::

    from repro.net import Simulator, Timeout, Signal
    from repro.net import Frame, Traffic, LinkSpec, GIGABIT, TEN_GIGABIT
    from repro.net import Nic, Switch, register_fabric_metrics
"""

from .engine import Latch, Process, Signal, SimulationError, Simulator, Timeout
from .frames import ETHERNET_MTU, WIRE_OVERHEAD, Frame, Traffic
from .links import GIGABIT, PRESETS, TEN_GIGABIT, TEN_MEGABIT, LinkSpec
from .loss import (
    BernoulliLoss,
    PerFragmentLoss,
    ReceiverLoss,
    SequenceLoss,
    TargetedLoss,
    derive_port_loss,
    no_loss,
)
from .monitors import register_fabric_metrics, register_switch_metrics
from .nic import Nic
from .switch import Switch, SwitchPort

__all__ = [
    "Simulator", "Timeout", "Signal", "Latch", "Process", "SimulationError",
    "Frame", "Traffic", "WIRE_OVERHEAD", "ETHERNET_MTU",
    "LinkSpec", "GIGABIT", "TEN_GIGABIT", "TEN_MEGABIT", "PRESETS",
    "no_loss", "derive_port_loss",
    "BernoulliLoss", "TargetedLoss", "SequenceLoss", "ReceiverLoss",
    "PerFragmentLoss",
    "Nic", "Switch", "SwitchPort",
    "register_fabric_metrics", "register_switch_metrics",
]
