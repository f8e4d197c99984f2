"""The original Totem single-ring protocol — the paper's baseline.

:class:`ReferenceRing` is an independent, self-contained transcription
of the original protocol used as an executable specification for
differential tests.  The production way to run the baseline is the core
engine configured by :meth:`repro.core.ProtocolConfig.original_ring`
(``accelerated_window = 0`` and the conservative priority method), which
the paper states is identical to the original Ring protocol.
"""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "reference": ("ReferenceRing", "RefMessage", "RefToken"),
})

