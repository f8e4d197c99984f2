"""The public API surface: every advertised name exists and imports."""

import importlib
import inspect
import pkgutil

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.totem",
    "repro.net",
    "repro.sim",
    "repro.membership",
    "repro.evs",
    "repro.spreadlike",
    "repro.emulation",
    "repro.baselines",
    "repro.harness",
    "repro.stats",
    "repro.bench",
    "repro.obs",
    "repro.wire",
    "repro.multiring",
    "repro.analysis",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", None)
    assert exported, "%s must declare __all__" % package_name
    # Loading a submodule binds it on the package under its own name: with
    # every one loaded, each export must still be its object, not a module.
    for module_info in pkgutil.iter_modules(package.__path__):
        importlib.import_module("%s.%s" % (package_name, module_info.name))
    for name in exported:
        assert hasattr(package, name), "%s.%s missing" % (package_name, name)
        assert not inspect.ismodule(getattr(package, name)), name


@pytest.mark.parametrize("package_name", PACKAGES)
def test_dir_lists_every_export(package_name):
    package = importlib.import_module(package_name)
    missing = set(package.__all__) - set(dir(package))
    assert not missing, "%s: dir() omits %s" % (package_name, sorted(missing))


@pytest.mark.parametrize("package_name", PACKAGES)
def test_packages_have_docstrings(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and len(package.__doc__.strip()) > 40, package_name


def test_core_entrypoint_signatures():
    from repro.core import Participant

    parameters = inspect.signature(Participant.__init__).parameters
    assert list(parameters)[1:3] == ["pid", "ring"]
    assert "service" in inspect.signature(Participant.submit).parameters


def test_run_point_signature_is_stable():
    from repro.sim import run_point

    parameters = inspect.signature(run_point).parameters
    for expected in ("protocol_config", "profile", "spec", "offered_bps",
                     "payload_size", "service", "duration_s", "warmup_s",
                     "seed", "loss"):
        assert expected in parameters, expected


def test_public_classes_have_docstrings():
    from repro.core import (
        AcceleratedWindowTuner,
        Participant,
        ProtocolConfig,
        ReceiveWindow,
        Ring,
        Token,
    )
    from repro.membership import EVSProcess
    from repro.sim import SimCluster, SimNode
    from repro.spreadlike import SpreadClient, SpreadDaemon

    for cls in (Participant, ProtocolConfig, Ring, Token, ReceiveWindow,
                AcceleratedWindowTuner, EVSProcess,
                SimCluster, SimNode, SpreadDaemon, SpreadClient):
        assert cls.__doc__ and cls.__doc__.strip(), cls.__name__


def test_version_is_exposed():
    import repro

    assert repro.__version__.count(".") == 2
