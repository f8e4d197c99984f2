"""Protocol nodes bound to the discrete-event network substrate.

This package reproduces the paper's testbed in simulation: eight hosts
with single-threaded daemons on a switched 1G/10G network, with the three
implementation cost profiles (library / daemon / Spread).
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "evs_node": ("SimEVSCluster", "SimEVSNode"),
    "cluster": ("SimCluster", "SimResult", "run_point"),
    "node": ("SimNode",),
    "faults": (
        "FaultSchedule", "FaultScheduleError", "Crash", "Restart", "Partition",
        "Heal", "TokenDrop", "LossSwap", "Flap", "Churn",
    ),
    "campaign": (
        "CampaignOptions", "ScenarioResult", "generate_schedule",
        "run_campaign", "run_scenario", "shrink_schedule",
    ),
    "latency": ("LatencyRecorder", "LatencySummary", "summarize"),
    "profiles": ("CostProfile", "LIBRARY", "DAEMON", "SPREAD", "PROFILES"),
    "trace": ("RoundTracer", "RoundStats"),
})
