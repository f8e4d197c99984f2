"""Discrete-event network substrate.

Models the testbed the paper ran on: hosts with line-rate NICs attached to
a store-and-forward switch with finite per-port buffers, supporting
unicast and multicast datagrams, with seeded loss injection.

Public surface::

    from repro.net import Simulator, Timeout, Signal
    from repro.net import Frame, Traffic, LinkSpec, GIGABIT, TEN_GIGABIT
    from repro.net import Nic, Switch, register_fabric_metrics
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "engine": (
        "Simulator", "Timeout", "Signal", "Process",
        "SimulationError",
    ),
    "frames": ("Frame", "Traffic", "WIRE_OVERHEAD", "ETHERNET_MTU"),
    "links": ("LinkSpec", "GIGABIT", "TEN_GIGABIT", "TEN_MEGABIT", "PRESETS"),
    "loss": (
        "no_loss", "derive_port_loss", "BernoulliLoss", "TargetedLoss",
        "SequenceLoss", "ReceiverLoss", "PerFragmentLoss",
    ),
    "nic": ("Nic",),
    "switch": ("Switch", "SwitchPort"),
    "monitors": ("register_fabric_metrics", "register_switch_metrics"),
})
