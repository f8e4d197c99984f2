"""Non-token total-order comparators (Section V of the paper)."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "comparators": (
        "run_sequencer_point", "run_ringpaxos_point", "BaselineHost",
        "BaselineResult",
    ),
})
