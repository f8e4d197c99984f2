"""Edge cases of the simulated host model."""

from dataclasses import replace
import pytest

from repro.core import ProtocolConfig, Service
from repro.net import GIGABIT, TEN_GIGABIT
from repro.sim import LIBRARY, SPREAD, SimCluster, run_point


def test_socket_buffer_overflow_recovers():
    # On 10G, frames arrive faster than Spread-profile processing, so a
    # tiny receive socket overflows during bursts; the protocol's
    # retransmissions must still converge near the offered load.
    tiny = replace(TEN_GIGABIT, socket_buffer_bytes=24 * 1024)
    config = ProtocolConfig(personal_window=30, global_window=300,
                            accelerated_window=25)
    result = run_point(
        config, SPREAD, tiny, 2200e6,
        duration_s=0.1, warmup_s=0.03, n_nodes=6,
    )
    assert result.socket_drops > 0
    assert result.retransmissions > 0
    # Goodput degrades under the loss/retransmission churn but the
    # service keeps flowing rather than collapsing.
    assert result.achieved_bps > 800e6


def test_zero_payload_messages_flow():
    config = ProtocolConfig(personal_window=5, accelerated_window=5)
    cluster = SimCluster(3, GIGABIT, LIBRARY, config, payload_size=1)
    cluster.inject_at_rate(1e6, duration_s=0.02)
    result = cluster.run(0.02, warmup_s=0.005, offered_bps=1e6)
    assert result.achieved_bps > 0


def test_single_node_cluster_runs():
    config = ProtocolConfig()
    cluster = SimCluster(1, GIGABIT, LIBRARY, config)
    cluster.inject_at_rate(50e6, duration_s=0.02)
    result = cluster.run(0.02, warmup_s=0.005, offered_bps=50e6)
    assert result.achieved_bps == pytest.approx(50e6, rel=0.2)
    assert not result.saturated


def test_two_node_cluster_total_order():
    delivered = {0: [], 1: []}
    config = ProtocolConfig(personal_window=10, accelerated_window=5)
    cluster = SimCluster(
        2, GIGABIT, LIBRARY, config,
        deliver_callback=lambda pid, m: delivered[pid].append(m.seq),
    )
    cluster.inject_at_rate(100e6, duration_s=0.03)
    cluster.run(0.03, warmup_s=0.0, offered_bps=100e6)
    shortest = min(len(delivered[0]), len(delivered[1]))
    assert shortest > 10
    assert delivered[0][:shortest] == delivered[1][:shortest]


# ---------------------------------------------------------------------------
# The resend deadline: one per node, one calendar entry
# ---------------------------------------------------------------------------

def _idle_node():
    """A node of a ring nobody started: its CPU process just waits."""
    cluster = SimCluster(2, GIGABIT, LIBRARY, ProtocolConfig())
    return cluster.sim, cluster.nodes[0]


def _pending(sim):
    return int(repr(sim).split("pending=")[1].rstrip(")"))


def test_set_timer_newer_deadline_supersedes_the_armed_one():
    sim, node = _idle_node()
    fired = []
    sim.run(until=0.001)
    quiet = _pending(sim)
    node.set_timer(0.005, fired.append, "first")
    sim.run(until=0.002)
    node.set_timer(0.005, fired.append, "second")
    sim.run(until=0.003)
    node.set_timer(0.005, lambda tag: fired.append((tag, sim.now)), "third")
    assert _pending(sim) == quiet + 1  # one calendar entry, three calls
    sim.run(until=0.0079)
    # The first entry fired at 0.006 and went back to sleep: only the
    # latest deadline runs, once, at the instant call_at would give it.
    assert fired == [] and _pending(sim) == quiet + 1
    sim.run(until=0.1)
    assert fired == [("third", 0.003 + ((0.003 + 0.005) - 0.003))]
    assert _pending(sim) == quiet


def test_set_timer_fires_at_the_instant_call_at_gave_the_parent():
    # Rule (b): an entry that wakes to find a newer deadline sleeps on to
    # the instant stored when that deadline was set — bit for bit what
    # ``sim.call_at(now + delay)`` computed before there was one entry.
    sim, node = _idle_node()
    seen = []
    delay = 0.005
    set_at = (0.0001, 0.0007000000000000001, 0.0033000000000000004)
    for when in set_at:
        sim.call_in(when, node.set_timer, delay,
                    lambda: seen.append(("timer", sim.now)))
    sim.call_in(set_at[-1], lambda: sim.call_at(
        sim.now + delay, lambda: seen.append(("call_at", sim.now))))
    sim.run()
    assert [kind for kind, _ in seen] == ["call_at", "timer"]
    assert seen[0][1] == seen[1][1]


def test_set_timer_fn_may_rearm_from_inside_the_firing():
    # resend_token's shape: the firing itself arms attempt + 1.
    sim, node = _idle_node()
    attempts = []

    def resend(attempt):
        attempts.append((attempt, sim.now))
        if attempt < 3:
            node.set_timer(0.005, resend, attempt + 1)

    node.set_timer(0.005, resend, 0)
    sim.run()
    assert [attempt for attempt, _ in attempts] == [0, 1, 2, 3]
    times = [when for _, when in attempts]
    assert times == sorted(set(times)) and times[-1] == pytest.approx(0.02)


def test_lost_token_is_resent_to_the_limit_through_the_one_deadline():
    from repro.net import Traffic

    config = ProtocolConfig()
    cluster = SimCluster(3, GIGABIT, LIBRARY, config)
    cluster.switch.add_fault_filter(lambda f: f.traffic is Traffic.TOKEN)
    result = cluster.run(0.1, warmup_s=0.0)
    # The leader's first token never arrives; its resend timer re-arms
    # itself attempt after attempt, then gives up.
    assert result.tokens_resent == config.token_retransmit_limit


def test_calendar_holds_one_resend_entry_per_node_not_one_per_token_send():
    n = 8
    cluster = SimCluster(n, TEN_GIGABIT, LIBRARY,
                         ProtocolConfig())
    cluster.inject_at_rate(100e6, duration_s=0.02)
    cluster.run(0.08, warmup_s=0.0, offered_bps=100e6)
    sends = sum(node.participant.stats.tokens_handled
                for node in cluster.nodes.values())
    assert sends > 10_000
    # Quiet: the injectors stopped at 0.02 s and the token circulates
    # alone.  Every one of those sends armed a 5 ms resend timer; the
    # calendar holds the n deadlines and the token's own next event,
    # where one entry per send would be thousands (a hop takes ~5 us).
    assert _pending(cluster.sim) <= 2 * n
