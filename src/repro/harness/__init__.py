"""In-process drivers for correctness testing and examples."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "loopback": ("LoopbackRing", "StabilityViolation"),
})
