"""Work-count guard for the token and data paths.

Counts Python calls with ``sys.setprofile``, matched by code object
rather than by name so that Python 3.10, 3.11 and 3.12 count alike, on
two fixed workloads: a seeded ``SpreadCluster`` run on the loopback ring
and a short ``SimCluster`` run shaped like the benchmark's ``sim_10g``.
It pins the per-message work those paths are down to:

* each submitted message is queued once (one ``_PendingMessage``) and
  each initiated message is built once (one ``DataMessage``);
* no other object of ``repro.core`` is built per message: every other
  constructor there, ``TokenRound`` included, runs at most once per
  token handled;
* the delivery frontier is walked at most once per token handled plus
  once per data message that fills the slot above it.

A per-message wrapper or copy brought back fails here instead of hiding
in benchmark noise.
"""

import importlib
import pkgutil
import random
import sys

import pytest

import repro.core
from repro.bench.experiments import tuned_configs
from repro.core import DeliveryEngine, Participant, Service
from repro.net import TEN_GIGABIT
from repro.sim import DAEMON
from repro.sim.cluster import SimCluster
from repro.spreadlike import SpreadCluster

WALK = DeliveryEngine.collect_deliverable.__code__
RECEIVE = Participant.on_data.__code__
SUBMIT = Participant.submit.__code__


def core_constructors():
    """Every ``__init__`` a class under ``repro.core`` defines (dataclass
    ones included), by code object -> the class name."""
    codes = {}
    for module_info in pkgutil.iter_modules(repro.core.__path__):
        module = importlib.import_module("repro.core." + module_info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            init = vars(cls).get("__init__")
            if getattr(init, "__qualname__", "") == cls.__qualname__ + ".__init__":
                codes[init.__code__] = cls.__name__
    return codes


BUILDS = core_constructors()


def count_calls(run):
    """``run()`` under a profile hook -> (its participants, counts).

    ``counts`` holds, per class name, the calls of each core constructor,
    the calls of ``WALK`` and ``SUBMIT`` and, under ``"frontier"``, the
    ``on_data`` calls whose message is new and fills the slot above the
    delivery frontier.
    """
    counts = dict.fromkeys(BUILDS.values(), 0)
    counts[WALK] = counts[SUBMIT] = 0
    frontier = [0]

    def hook(frame, event, _arg):
        if event != "call":
            return
        code = frame.f_code
        name = BUILDS.get(code)
        if name is not None:
            counts[name] += 1
        elif code is WALK or code is SUBMIT:
            counts[code] += 1
        elif code is RECEIVE:
            # Arguments only: the hook runs before the body does.
            participant = frame.f_locals["self"]
            seq = frame.f_locals["message"].seq
            if (seq == participant.delivered_upto + 1
                    and participant.buffer.get(seq) is None):
                frontier[0] += 1

    # Restore whatever hook was installed before (a call census may be
    # counting this very run).
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        participants = run()
    finally:
        sys.setprofile(previous)
    counts["frontier"] = frontier[0]
    return participants, counts


def spread_run():
    """2k multicasts, one in four Safe, from 16 clients of 4 daemons into
    8 groups, flushed every 400 (seed 1)."""
    rng = random.Random(1)
    cluster = SpreadCluster(4)
    clients = [cluster.client("c%d" % c, daemon=c % 4) for c in range(16)]
    for index, client in enumerate(clients):
        client.join("g%d" % (index % 8))
        client.join("g%d" % ((index + 3) % 8))
    cluster.flush()
    for _batch in range(5):
        for i in range(400):
            service = Service.SAFE if rng.random() < 0.25 else Service.AGREED
            clients[rng.randrange(16)].multicast(
                "g%d" % rng.randrange(8), i, service)
        cluster.flush()
    for client in clients:
        assert client.receive()
    return list(cluster.ring.participants.values())


def sim_run():
    """``sim_10g``'s cluster (8 daemons, 10G, 2000 Mbps offered) for
    0.02 simulated seconds."""
    cluster = SimCluster(
        8, TEN_GIGABIT, DAEMON, tuned_configs(TEN_GIGABIT)["accelerated"],
        payload_size=1350, service=Service.AGREED, seed=1,
    )
    cluster.inject_at_rate(2000e6, 0.02)
    cluster.run(0.02, 0.006, offered_bps=2000e6)
    return [node.participant for node in cluster.nodes.values()]


@pytest.mark.parametrize("run", [spread_run, sim_run],
                         ids=["loop_spread", "sim_10g"])
def test_token_and_data_paths_do_per_message_work_once(run):
    participants, counts = count_calls(run)
    initiated = sum(p.stats.messages_initiated for p in participants)
    tokens = sum(p.stats.tokens_handled for p in participants)
    assert initiated > 1000 and tokens > 100
    assert counts.pop("_PendingMessage") == counts[SUBMIT]
    assert counts.pop("DataMessage") == initiated
    assert counts.pop("TokenRound", 0) <= tokens
    # One token per handling, and the ring's initial one.
    assert counts.pop("Token") <= tokens + 1
    for name in BUILDS.values():
        assert counts.get(name, 0) <= tokens, name
    assert counts[WALK] <= tokens + counts["frontier"]
