"""Each entry point loads only the layers it uses.

Package exports resolve on first use (``repro._exports``), so what a run
imports is the closure of the submodules it touches, not of the package
``__init__`` files on its way.  Each case sets up one benchmark workload
in a fresh interpreter and checks ``sys.modules`` against the layers it
must not load.
"""

import ast
import glob
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SIM_10G = """
from repro.bench.experiments import tuned_configs
from repro.core import Service
from repro.net import TEN_GIGABIT
from repro.sim import DAEMON
from repro.sim.cluster import SimCluster

cluster = SimCluster(8, TEN_GIGABIT, DAEMON,
                     tuned_configs(TEN_GIGABIT)["accelerated"],
                     payload_size=1350, service=Service.AGREED, seed=1)
cluster.inject_at_rate(2000e6, 0.01)
"""

LOOP_SPREAD = """
from repro.spreadlike import SpreadCluster

cluster = SpreadCluster(4)
client = cluster.client("c0", daemon=0)
client.join("g0")
cluster.flush()
client.receive()
"""

UDP = """
from repro.core import ProtocolConfig
from repro.emulation import EmulatedRing
"""

CASES = {
    # Neither in-process workload may load the socket path, so a change
    # to repro.emulation cannot move their numbers.
    "sim_10g": (SIM_10G, (
        "repro.membership", "repro.evs", "repro.wire", "repro.spreadlike",
        "repro.multiring", "repro.obs.lifecycle", "repro.sim.campaign",
        "repro.sim.evs_node", "repro.emulation",
    )),
    "loop_spread": (LOOP_SPREAD, (
        "repro.membership", "repro.evs", "repro.net", "repro.sim",
        "repro.wire", "repro.emulation",
    )),
    "udp": (UDP, (
        "repro.sim", "repro.net", "repro.bench", "repro.evs",
        "repro.membership.controller", "repro.membership.gossip",
    )),
}

REPORT = """
import sys
print("\\n".join(sorted(name for name in sys.modules if name.startswith("repro"))))
"""


def loaded_modules(code):
    """The ``repro`` modules a fresh interpreter holds after ``code``."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code + REPORT],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("workload", sorted(CASES))
def test_workload_loads_only_its_layers(workload):
    code, forbidden = CASES[workload]
    modules = loaded_modules(code)
    assert "repro.core.participant" in modules
    loaded = [name for name in modules
              if any(name == layer or name.startswith(layer + ".")
                     for layer in forbidden)]
    assert loaded == [], "%s loads %s" % (workload, ", ".join(loaded))


def _imported_modules(path, package):
    """Every module ``path`` imports, at any depth, as an absolute name."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = ".".join(parts[:len(parts) - node.level + 1])
                name = base + "." + node.module if node.module else base
            else:
                name = node.module
            yield node.lineno, name


def test_the_fabric_imports_nothing_outside_itself():
    """``repro.net`` forwards frames by the kind their sender declared
    and never needs the protocol's classes, not even inside a function.
    ``repro._exports`` is the package-export helper every package uses."""
    outside = []
    for path in sorted(glob.glob(os.path.join(SRC, "repro", "net", "*.py"))):
        for lineno, name in _imported_modules(path, "repro.net"):
            if (name.startswith("repro") and name != "repro._exports"
                    and name != "repro.net"
                    and not name.startswith("repro.net.")):
                outside.append("%s:%d %s" % (os.path.basename(path),
                                             lineno, name))
    assert outside == []
