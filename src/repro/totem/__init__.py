"""The original Totem single-ring protocol — the paper's baseline.

Two forms live here:

* :class:`ReferenceRing` — an independent, self-contained transcription
  of the original protocol used as an executable specification for
  differential tests.
* :func:`original_config` — the production way to run the baseline: the
  core engine with ``accelerated_window = 0`` and the conservative
  priority method, which the paper states is identical to the original
  Ring protocol.
"""

from .._exports import lazy_exports
from ..core import ProtocolConfig

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "reference": ("ReferenceRing", "RefMessage", "RefToken"),
})


def original_config(**overrides) -> ProtocolConfig:
    """The core engine configured as the original Ring protocol."""
    return ProtocolConfig.original_ring(**overrides)


__all__.append("original_config")
