"""Measurement containers and report helpers."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "series": ("Figure", "Series", "SeriesPoint"),
})
