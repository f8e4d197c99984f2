"""Benchmark harness: regenerates every figure of the paper's evaluation."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "experiments": (
        "SweepSpec", "tuned_configs", "full_mode", "ALL_FIGURES", "make_fig1",
        "make_fig2", "make_fig3", "make_fig4", "make_fig5", "make_fig6",
        "make_fig7",
    ),
    "runner": (
        "run_sweep", "persist_figure", "series_label", "default_processes",
    ),
    "report": (
        "register", "headline", "render_all", "reset", "REGISTRY", "HEADLINES",
    ),
})
