"""The fabric's counters in a :class:`~repro.obs.registry.MetricsRegistry`.

Every metric is a bound view over a live NIC, switch-port or switch
attribute, read only when a snapshot is taken — nothing on the frame
path changes.  Per-node scopes use the NIC/port host id; switch-wide
counters are unscoped.
"""

from __future__ import annotations

from typing import Iterable

from .nic import Nic
from .switch import Switch


def register_fabric_metrics(registry, switch: Switch,
                            nics: Iterable[Nic]) -> None:
    """Bind every NIC, every switch port and the switch-wide counters."""
    for nic in nics:
        pid = nic.host_id
        for attr in ("frames_sent", "bytes_sent", "drops_overflow"):
            registry.bind("net.nic." + attr, nic, attr, node=pid)
    for host_id in switch.host_ids:
        port = switch.port(host_id)
        for attr in ("frames_forwarded", "bytes_forwarded", "drops_overflow",
                     "drops_injected", "queued_bytes", "max_queue_bytes"):
            registry.bind("net.port." + attr, port, attr, node=host_id)
    register_switch_metrics(registry, switch)


def register_switch_metrics(registry, switch: Switch) -> None:
    """Bind the switch-wide ingress, drop and per-traffic-class counters."""
    for attr in ("frames_received", "drops_partition", "drops_fault"):
        registry.bind("net.switch." + attr, switch, attr)
    for cls in switch.class_frames:
        registry.bind_fn("net.switch.class.%s.frames" % cls,
                         (lambda c=cls: switch.class_frames.get(c, 0)))
        registry.bind_fn("net.switch.class.%s.bytes" % cls,
                         (lambda c=cls: switch.class_bytes.get(c, 0)))
