"""Tests for the EVS network harness itself (routing, partitions)."""

import pytest

from repro.harness.evsnet import EVSNetwork
from repro.membership import State


def test_connected_within_group_only():
    net = EVSNetwork([1, 2, 3, 4])
    net.set_partition({1, 2}, {3, 4})
    assert net.connected(1, 2)
    assert not net.connected(1, 3)
    assert net.connected(3, 4)
    assert net.connected(2, 2)  # self


def test_unlisted_pids_become_isolated():
    net = EVSNetwork([1, 2, 3])
    net.set_partition({1, 2})
    assert net.group_of(3) == {3}
    assert not net.connected(3, 1)


def test_crashed_process_not_connected():
    net = EVSNetwork([1, 2])
    net.crash(2)
    assert not net.connected(1, 2)
    assert not net.connected(2, 1)


def test_partition_drops_in_flight_traffic():
    net = EVSNetwork([1, 2, 3])
    net.run_until_converged()
    # Generate traffic so queues are non-empty, then cut the network.
    for pid in (1, 2, 3):
        net.submit(pid, ("m", pid))
    net.step()  # sends are now in flight
    had_queued = any(
        net._ring[pid].data or net._ring[pid].tokens for pid in (1, 2, 3)
    )
    net.set_partition({1}, {2}, {3})
    for pid in (1, 2, 3):
        for src, _payload in net._ring[pid].data:
            assert net.connected(src, pid), "cross-partition message survived"
    assert had_queued  # the scenario actually exercised the drop path


def test_heal_restores_full_connectivity():
    net = EVSNetwork([1, 2, 3])
    net.set_partition({1}, {2}, {3})
    net.heal()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert net.connected(a, b)


def test_heal_excludes_crashed():
    net = EVSNetwork([1, 2, 3])
    net.crash(3)
    net.heal()
    assert not net.connected(1, 3)


def test_steps_counter_advances():
    net = EVSNetwork([1, 2])
    before = net.steps
    net.run_quiet(10)
    assert net.steps == before + 10


def test_three_way_partition_forms_three_rings():
    net = EVSNetwork([1, 2, 3, 4, 5, 6])
    net.run_until_converged()
    net.set_partition({1, 2}, {3, 4}, {5, 6})
    net.run_until_converged()
    assert net.processes[1].ring.members == (1, 2)
    assert net.processes[3].ring.members == (3, 4)
    assert net.processes[5].ring.members == (5, 6)
    ring_ids = {net.processes[p].ring.ring_id for p in (1, 3, 5)}
    assert len(ring_ids) == 3  # all distinct (representative-scoped ids)


def test_converged_false_while_gathering():
    net = EVSNetwork([1, 2])
    # Immediately after bootstrap everyone is still gathering.
    assert not net.converged() or all(
        net.processes[p].state is State.OPERATIONAL for p in (1, 2)
    )
    net.run_until_converged()
    assert net.converged()
