"""Non-token total-order comparators (Section V of the paper)."""

from .comparators import (
    BaselineHost,
    BaselineResult,
    run_ringpaxos_point,
    run_sequencer_point,
)

__all__ = [
    "run_sequencer_point", "run_ringpaxos_point",
    "BaselineHost", "BaselineResult",
]
