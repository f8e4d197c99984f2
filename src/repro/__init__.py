"""repro — a reproduction of "Fast Total Ordering for Modern Data Centers".

The package implements the Accelerated Ring totally ordered multicast
protocol (Babay & Amir, ICDCS 2016) together with everything needed to
reproduce the paper's evaluation:

* :mod:`repro.core` — the sans-IO protocol engine (the contribution);
* :mod:`repro.totem` — the original Totem Ring baseline;
* :mod:`repro.net` — a discrete-event network substrate (1G/10G switches);
* :mod:`repro.sim` — protocol nodes bound to the substrate, with the
  paper's three implementation profiles (library / daemon / Spread);
* :mod:`repro.membership` — Totem-style membership with EVS semantics;
* :mod:`repro.spreadlike` — a Spread-like daemon/group layer;
* :mod:`repro.emulation` — the protocol over real UDP sockets;
* :mod:`repro.bench` — the harness that regenerates Figures 1-7.
"""

from ._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "core": (
        "Participant", "ProtocolConfig", "PriorityMethod", "Service", "Ring",
        "Token", "DataMessage", "initial_token", "AcceleratedWindowTuner",
        "TunerConfig",
    ),
    "harness": ("LoopbackRing",),
})

__version__ = "1.0.0"
__all__.append("__version__")
