"""Kernel throughput microbenchmark: simulator speed per CPU second.

Not a paper figure; tracks the discrete-event kernel's hot-path speed,
which bounds how fast every sweep in this repo runs.  The measured rates
are written to ``bench_results/kernel.json`` so CI can archive the
numbers per commit and regressions show up as a trend, not a guess.

Two workloads are measured:

* ``kernel_dispatch`` — the kernel alone: a fixed process population
  exercising every entry type the run loop dispatches on (calendar
  sleeps, zero-delay two-hop resumes, signal waits and fires, scheduled
  callbacks) with no protocol logic on top.  This is the kernel's event
  dispatch rate — the quantity the array-backed ready queue and
  per-event-type dispatch in :mod:`repro.net.engine` optimize — and the
  headline ``events_per_sec_best``.
* ``sim_8node_gigabit`` — a fixed 8-node accelerated-ring simulation,
  the mix representative of real sweeps (protocol state machine, switch
  and NIC models included).  This bounds end-to-end sweep speed and is
  reported as ``sim_msgs_per_cpu_s_best``: messages delivered at every
  node per CPU second.  Messages, not events — a simulator that needs
  fewer events for the same run is faster, and events per second would
  call it slower.  ``events_per_run`` stays in the record, unguarded.

Measured with ``time.process_time`` (CPU time, not wall-clock) because
benchmark machines are noisy and often shared.
"""

import json
import os
import time

from repro.core import ProtocolConfig
from repro.net import GIGABIT
from repro.net.engine import Signal, Simulator, Timeout
from repro.sim import SPREAD
from repro.sim.cluster import SimCluster

RESULTS_DIR = os.environ.get("REPRO_BENCH_RESULTS", "bench_results")
REPEATS = 3
DURATION_S = 0.1
OFFERED_BPS = 600e6
DISPATCH_DURATION_S = 0.5


def _one_run():
    config = ProtocolConfig(personal_window=15, accelerated_window=10)
    cluster = SimCluster(8, GIGABIT, SPREAD, config, seed=1)
    cluster.inject_at_rate(OFFERED_BPS, DURATION_S)
    start = time.process_time()
    cluster.run(DURATION_S, 0.03, offered_bps=OFFERED_BPS)
    elapsed = time.process_time() - start
    delivered = min(node.participant.stats.delivered
                    for node in cluster.nodes.values())
    return cluster.sim.event_count, delivered, elapsed


def _one_dispatch_run(run_s=DISPATCH_DURATION_S):
    """Kernel-only workload: every dispatch type, no protocol on top.

    16 sleeper processes cycle through cached-Timeout calendar sleeps,
    periodic zero-delay yields (the two-hop ready-queue path), signal
    fires and signal waits; one ticker schedules a plain callback per
    microsecond.  Deterministic: no randomness, fixed interleaving.
    """
    sim = Simulator()
    pause = Timeout(1e-6)
    zero = Timeout(0.0)
    signals = [Signal(sim, "s%d" % i) for i in range(8)]

    def sleeper(idx):
        sig = signals[idx % 8]
        peer = signals[(idx + 1) % 8]
        i = 0
        while True:
            yield pause          # calendar event + ready-queue resume
            i += 1
            if not (i & 7):
                peer.fire()      # wake any waiter on the peer signal
                yield zero       # zero-delay two-hop resume
            if not (i & 15):
                yield sig        # block until a peer fires us

    def ticker():
        noop = lambda: None  # noqa: E731 - minimal callback target
        while True:
            yield pause
            sim.call_in(1e-6, noop)

    for i in range(16):
        sim.spawn(sleeper(i), "p%d" % i)
    sim.spawn(ticker(), "tick")
    start = time.process_time()
    sim.run(until=run_s)
    elapsed = time.process_time() - start
    return sim.event_count, elapsed


def test_kernel_events_per_sec():
    # Warm-up passes so import/alloc costs don't pollute the first sample.
    _one_dispatch_run(0.05)
    _one_run()

    dispatch_samples = []
    for _ in range(REPEATS):
        events, elapsed = _one_dispatch_run()
        assert events > 100_000, "dispatch workload too small to measure"
        dispatch_samples.append(events / elapsed)
    dispatch_events = events

    sim_samples = []
    for _ in range(REPEATS):
        events, delivered, elapsed = _one_run()
        assert delivered > 1_000, "sim workload too small to measure"
        sim_samples.append(delivered / elapsed)

    best = max(dispatch_samples)
    sim_best = max(sim_samples)
    record = {
        "benchmark": "kernel_events_per_sec",
        "events_per_sec_best": round(best),
        "events_per_sec_samples": [round(s) for s in dispatch_samples],
        "dispatch_events_per_run": dispatch_events,
        "dispatch_duration_s": DISPATCH_DURATION_S,
        "sim_msgs_per_cpu_s_best": round(sim_best),
        "sim_msgs_per_cpu_s_samples": [round(s) for s in sim_samples],
        "msgs_per_run": delivered,
        "events_per_run": events,
        "repeats": REPEATS,
        "sim_duration_s": DURATION_S,
        "offered_bps": OFFERED_BPS,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "kernel.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    # Generous floors: catch order-of-magnitude regressions without
    # flaking on slow CI machines (the recorded JSON is the real signal).
    assert best > 200_000
    assert sim_best > 1_000
