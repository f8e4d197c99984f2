"""Golden digests of the two Section V comparators.

The fixed sequencer and Ring Paxos share one simulated host
(``repro.baselines.BaselineHost``); each digest pins what a small grid of
:func:`run_sequencer_point` / :func:`run_ringpaxos_point` calls measures
— ``achieved_bps``, the whole latency summary and ``saturated``, floats
by ``repr`` — so a refactor of the host or of the injector it shares
with :class:`repro.sim.SimCluster` cannot move a bit unnoticed.

The grid reaches both coordinators' saturation (3000 Mbps on 10G, once
with a socket buffer small enough to fill), an uncongested 1G point, a
two-node ring (the closing acceptor is node 1) and the idle case.  When
a deliberate change moves a row, recompute with ``_digest(name)`` and
list the rows that moved in the commit message.  The first five rows
were minted before the comparators shared a host and matched unchanged
after; the sixth was added with the coordinator socket-buffer fix.
"""

from __future__ import annotations

from dataclasses import replace

import hashlib

import pytest

from repro.baselines import run_ringpaxos_point, run_sequencer_point
from repro.net import GIGABIT, TEN_GIGABIT
from repro.sim import DAEMON, LIBRARY, SPREAD

#: (profile, link, nodes, offered Mbps); seed = nodes.
GRID = (
    (LIBRARY, GIGABIT, 4, 300),
    (DAEMON, GIGABIT, 2, 900),
    (SPREAD, GIGABIT, 8, 900),
    (SPREAD, TEN_GIGABIT, 8, 3000),
    (DAEMON, TEN_GIGABIT, 4, 0),
    # A 1 MiB socket buffer fills within the run: the coordinator's own
    # submissions must take their room in it.
    (SPREAD, replace(TEN_GIGABIT, name="10G-1MiB",
                     socket_buffer_bytes=1 << 20),
     8, 3000),
)

RUNNERS = {
    "sequencer": run_sequencer_point,
    "ringpaxos": run_ringpaxos_point,
}

DIGESTS = {
    "sequencer":
        "bcd3bb827da9ff47c19522cbd02dac1a09b7ee6b267df00b5ed11d0cbc402c18",
    "ringpaxos":
        "bfa7b1bcc74d53c48e5db532d769e630d046e0d4c4881788d638d7e95686fc1a",
}


def _digest(name: str) -> str:
    h = hashlib.sha256()
    for profile, spec, n_nodes, mbps in GRID:
        result = RUNNERS[name](profile, spec, mbps * 1e6, n_nodes=n_nodes,
                               duration_s=0.04, warmup_s=0.01, seed=n_nodes)
        lat = result.latency
        row = (profile.name, spec.name, n_nodes, mbps, result.achieved_bps,
               lat.count, lat.mean_s, lat.p50_s, lat.p90_s, lat.p99_s,
               lat.max_s, result.saturated)
        h.update(" ".join(repr(p) for p in row).encode("ascii") + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNNERS))
def test_comparator_digest(name):
    assert _digest(name) == DIGESTS[name], (
        "the %s comparator's measurements changed" % name
    )
