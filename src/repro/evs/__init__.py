"""Extended Virtual Synchrony layer: configurations and app-level events."""

from .._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "configuration": (
        "Configuration", "ConfigurationKind", "ConfigChange", "AppMessage",
    ),
    "semantics": ("EVSViolation", "check_all", "check_virtual_synchrony"),
    "checker": ("EVSChecker",),
})
