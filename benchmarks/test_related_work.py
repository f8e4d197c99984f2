"""Section V comparison: the Accelerated Ring vs the two comparators.

Paper numbers: JGroups' sequencer-based total order reaches ~650 Mbps on
1G (vs Spread's ~920) with the same 8-node setup; U-Ring Paxos reaches
~750 Mbps on 1G with 1350-byte messages (with batching) and "a latency
profile similar to that of the original Ring protocol for Safe
delivery", while accelerated Spread exceeds 920 Mbps.  The ring and
both comparators run on the same simulated substrate, cost profile and
injector here.  The sequencer handles every message twice (receive +
re-multicast), so it saturates well before the ring, while at very low
load it can undercut the ring's token-wait latency; Ring Paxos delivery
carries quorum stability, so its apples-to-apples ring curve is Safe.
"""

from repro.baselines import run_ringpaxos_point, run_sequencer_point
from repro.bench import headline, tuned_configs
from repro.core import Service
from repro.net import GIGABIT, TEN_GIGABIT
from repro.sim import SPREAD, run_point


def compare(comparator, spec, service, loads, duration_s, warmup_s):
    """The accelerated ring and one comparator at each offered load."""
    accel = tuned_configs(spec)["accelerated"]
    ring, other = {}, {}
    for offered_mbps in loads:
        ring[offered_mbps] = run_point(
            accel, SPREAD, spec, offered_mbps * 1e6, service=service,
            duration_s=duration_s, warmup_s=warmup_s,
        )
        other[offered_mbps] = comparator(
            SPREAD, spec, offered_mbps * 1e6,
            duration_s=duration_s, warmup_s=warmup_s,
        )
    return ring, other


def max_unsaturated_mbps(points):
    return max(
        (p.achieved_mbps for p in points.values() if not p.saturated),
        default=0.0,
    )


def test_sequencer_baseline(benchmark):
    ring, seq = benchmark.pedantic(
        compare, rounds=1, iterations=1,
        args=(run_sequencer_point, TEN_GIGABIT, Service.AGREED,
              (100, 500, 1000, 1500, 2000), 0.1, 0.035),
    )

    # The coordinator handles every message twice, so the sequencer
    # saturates well below the ring on the CPU-bound 10G testbed
    # (paper, Section V: JGroups' total order well below Spread's max).
    assert not ring[2000].saturated
    assert seq[2000].saturated or seq[2000].achieved_bps < 1800e6

    ring_max = max_unsaturated_mbps(ring)
    seq_max = max_unsaturated_mbps(seq)
    assert ring_max > seq_max * 1.2, (ring_max, seq_max)

    # At trivial load the sequencer's two hops beat waiting for a token.
    assert seq[100].latency_us < ring[100].latency_us

    headline(
        "* related work (10G, Spread profile): measured sequencer max "
        "%.0f Mbps vs ring max %.0f Mbps (paper 1G: JGroups ~650 vs "
        "Spread >920)" % (seq_max, ring_max)
    )


def test_ringpaxos_baseline(benchmark):
    ring, paxos = benchmark.pedantic(
        compare, rounds=1, iterations=1,
        args=(run_ringpaxos_point, GIGABIT, Service.SAFE,
              (100, 400, 600, 700, 800, 900), 0.12, 0.04),
    )

    # The accelerated ring clearly out-throughputs Ring Paxos (paper:
    # >920 vs ~750 Mbps), and Ring Paxos lands in the paper's zone.
    ring_max = max_unsaturated_mbps(ring)
    paxos_max = max_unsaturated_mbps(paxos)
    assert ring_max > paxos_max, (ring_max, paxos_max)
    assert 500 <= paxos_max <= 850, paxos_max

    # At moderate load Ring Paxos latency resembles ring-Safe latency
    # (same order of magnitude), as the paper observes.
    ring_400 = ring[400].latency_us
    paxos_400 = paxos[400].latency_us
    assert 0.2 <= paxos_400 / ring_400 <= 5.0, (paxos_400, ring_400)

    headline(
        "* related work Ring Paxos (1G, Spread profile): paper U-Ring "
        "~750 Mbps vs accel Spread >920; measured paxos max %.0f Mbps vs "
        "accel ring (Safe) max %.0f Mbps"
        % (paxos_max, ring_max)
    )
