"""Protocol nodes bound to the discrete-event network substrate.

This package reproduces the paper's testbed in simulation: eight hosts
with single-threaded daemons on a switched 1G/10G network, with the three
implementation cost profiles (library / daemon / Spread).
"""

from .campaign import (
    CampaignOptions,
    ScenarioResult,
    generate_schedule,
    run_campaign,
    run_scenario,
    shrink_schedule,
)
from .cluster import SimCluster, SimResult, run_point
from .faults import (
    Churn,
    Crash,
    FaultSchedule,
    FaultScheduleError,
    Flap,
    Heal,
    LossSwap,
    Partition,
    Restart,
    TokenDrop,
)
from .latency import LatencyRecorder, LatencySummary, summarize
from .node import SimNode
from .profiles import DAEMON, LIBRARY, PROFILES, SPREAD, CostProfile
from .evs_node import SimEVSCluster, SimEVSNode
from .trace import RoundStats, RoundTracer

__all__ = [
    "SimEVSCluster", "SimEVSNode",
    "SimCluster", "SimResult", "run_point",
    "SimNode",
    "FaultSchedule", "FaultScheduleError",
    "Crash", "Restart", "Partition", "Heal", "TokenDrop", "LossSwap",
    "Flap", "Churn",
    "CampaignOptions", "ScenarioResult",
    "generate_schedule", "run_campaign", "run_scenario", "shrink_schedule",
    "LatencyRecorder", "LatencySummary", "summarize",
    "CostProfile", "LIBRARY", "DAEMON", "SPREAD", "PROFILES",
    "RoundTracer", "RoundStats",
]
