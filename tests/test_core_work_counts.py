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
* the receive window's run is released at most once per token handled
  plus once per data message that fills the slot above
  ``delivered_upto``;
* an ``on_data`` call whose message is new and in order (one above every
  seq its window has held) makes at most one Python call, the window's
  ``receive``;
* a token handling makes at most ``TOKEN_CALLS`` Python calls on
  average on ``sim_10g``'s cluster, comprehension frames not counted
  (Python 3.12 inlines them);
* a lossless multicast copy makes at most two calls into ``repro.net``:
  the switch port's ``_admit`` and the ``_settle`` it calls.  The
  loopback ring has no network, so there the pin reads 0 <= 0.

A per-message wrapper or copy brought back fails here instead of hiding
in benchmark noise.
"""

import importlib
import pkgutil
import random
import sys
import types

import pytest

import repro.core
from repro.bench.experiments import tuned_configs
from repro.core import Participant, ReceiveWindow, Service
from repro.net import TEN_GIGABIT
from repro.net.line import TransmitLine
from repro.net.switch import Switch, SwitchPort
from repro.sim import DAEMON
from repro.sim.cluster import SimCluster
from repro.spreadlike import SpreadCluster

WALK = ReceiveWindow.release.__code__
RECEIVE = Participant.on_data.__code__
HANDLE = Participant.on_token.__code__
SUBMIT = Participant.submit.__code__
FORWARD = Switch._forward.__code__
ADMIT = TransmitLine._admit.__code__
PORT = frozenset(
    function.__code__ for cls in (TransmitLine, SwitchPort)
    for function in vars(cls).values()
    if isinstance(function, types.FunctionType))


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
#: Python calls per token handling on ``sim_10g``'s cluster, averaged.
TOKEN_CALLS = 12.72


def count_calls(run):
    """``run()`` under a profile hook -> (its participants, counts).

    ``counts`` holds, per class name, the calls of each core constructor,
    the calls of ``WALK`` and ``SUBMIT`` and, under ``"frontier"``, the
    ``on_data`` calls whose message is new and fills the slot above
    ``delivered_upto``.  Under ``"in_order"`` it counts the ``on_data``
    calls whose message is one above every seq held and under
    ``"worst"`` the most calls one of them made; under ``"copies"`` the
    ``ADMIT`` calls of multicast fan-outs and under ``"port"`` every call
    of a port method made there; under ``"in_token"`` every call made,
    at any depth, inside an ``on_token`` call, comprehensions excepted.
    """
    counts = dict.fromkeys(BUILDS.values(), 0)
    counts[WALK] = counts[SUBMIT] = 0
    for key in ("frontier", "in_order", "worst", "copies", "port",
                "in_token"):
        counts[key] = 0
    # The in-order on_data call running and the calls it made so far,
    # the on_token call running, and the multicast Switch._forward
    # running.
    receiving = made = handling = fanout = None

    def hook(frame, event, _arg):
        nonlocal receiving, made, handling, fanout
        if event == "return":
            if frame is receiving:
                counts["worst"] = max(counts["worst"], made)
                receiving = None
            elif frame is handling:
                handling = None
            elif frame is fanout:
                fanout = None
            return
        if event != "call":
            return
        code = frame.f_code
        if receiving is not None and frame.f_back is receiving:
            made += 1
        if handling is not None and not code.co_name.endswith("comp>"):
            counts["in_token"] += 1
        elif code is HANDLE:
            handling = frame
        if fanout is not None and code in PORT:
            counts["port"] += 1
            counts["copies"] += code is ADMIT
        name = BUILDS.get(code)
        if name is not None:
            counts[name] += 1
        elif code is WALK or code is SUBMIT:
            counts[code] += 1
        elif code is RECEIVE:
            # Arguments only: the hook runs before the body does.
            participant = frame.f_locals["self"]
            seq = frame.f_locals["message"].seq
            window = participant.window
            if (seq == participant.delivered_upto + 1
                    and window.get(seq) is None):
                counts["frontier"] += 1
            if seq == window.highest_seq_seen + 1:
                counts["in_order"] += 1
                receiving, made = frame, 0
        elif code is FORWARD and frame.f_locals["frame"].dst is None:
            fanout = frame

    # Restore whatever hook was installed before (a call census may be
    # counting this very run).
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        participants = run()
    finally:
        sys.setprofile(previous)
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


RUNS = pytest.mark.parametrize("run", [spread_run, sim_run],
                               ids=["loop_spread", "sim_10g"])
_COUNTED = {}


def counted(run):
    """``count_calls(run)``, run once for all the tests below."""
    if run not in _COUNTED:
        _COUNTED[run] = count_calls(run)
    participants, counts = _COUNTED[run]
    tokens = sum(p.stats.tokens_handled for p in participants)
    return participants, dict(counts), tokens


@RUNS
def test_token_and_data_paths_do_per_message_work_once(run):
    participants, counts, tokens = counted(run)
    initiated = sum(p.stats.messages_initiated for p in participants)
    assert initiated > 1000 and tokens > 100
    assert counts.pop("_PendingMessage") == counts[SUBMIT]
    assert counts.pop("DataMessage") == initiated
    assert counts.pop("TokenRound", 0) <= tokens
    # One token per handling, and the ring's initial one.
    assert counts.pop("Token") <= tokens + 1
    for name in BUILDS.values():
        assert counts.get(name, 0) <= tokens, name
    assert counts[WALK] <= tokens + counts["frontier"]


@RUNS
def test_in_order_receive_makes_one_call(run):
    _participants, counts, _tokens = counted(run)
    assert counts["in_order"] > 1000
    assert counts["worst"] <= 1


def test_token_handling_call_budget():
    participants, counts, tokens = counted(sim_run)
    assert tokens > 1000
    assert counts["in_token"] <= TOKEN_CALLS * tokens, (
        counts["in_token"] / tokens)


@RUNS
def test_lossless_multicast_copy_makes_two_net_calls(run):
    _participants, counts, _tokens = counted(run)
    if run is sim_run:
        assert counts["copies"] > 1000
    assert counts["port"] <= 2 * counts["copies"]
