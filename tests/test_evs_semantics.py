"""The EVS axiom checkers — unit tests plus full-stack enforcement.

The second half runs real membership scenarios and feeds every
incarnation's log through the one judge, ``EVSChecker``, so ALL the
axioms are enforced on every scenario, not just the property each
scenario was written for.
"""

import pytest

from repro.core import Service
from repro.evs import (
    AppMessage,
    ConfigChange,
    Configuration,
    EVSChecker,
    EVSViolation,
)
from repro.evs.semantics import (
    check_messages_within_configuration,
    check_no_duplicates,
    check_self_inclusion,
    check_seq_order_within_configuration,
    check_transitional_placement,
    check_virtual_synchrony,
)
from repro.harness.evsnet import EVSNetwork


def regular(ring_id, members):
    return ConfigChange(Configuration.regular(ring_id, members))


def transitional(ring_id, members):
    return ConfigChange(Configuration.transitional(ring_id, members))


def msg(ring_id, seq, sender=1, payload=None, trans=False):
    return AppMessage(ring_id=ring_id, seq=seq, sender=sender,
                      payload=payload or ("p", seq), safe=False,
                      transitional=trans)


# ---------------------------------------------------------------------------
# Checker unit tests (synthetic logs)
# ---------------------------------------------------------------------------

def test_self_inclusion_violation_detected():
    log = [regular(1, (2, 3))]
    with pytest.raises(EVSViolation):
        check_self_inclusion(log, pid=1)


def test_message_before_configuration_rejected():
    with pytest.raises(EVSViolation):
        check_messages_within_configuration([msg(1, 1)])


def test_wrong_ring_attribution_detected():
    log = [regular(1, (1,)), msg(2, 1)]
    with pytest.raises(EVSViolation):
        check_messages_within_configuration(log)


def test_seq_regression_detected():
    log = [regular(1, (1,)), msg(1, 2), msg(1, 1)]
    with pytest.raises(EVSViolation):
        check_seq_order_within_configuration(log)


def test_transitional_message_in_regular_config_detected():
    log = [regular(1, (1,)), msg(1, 1, trans=True)]
    with pytest.raises(EVSViolation):
        check_transitional_placement(log)


def test_duplicate_delivery_detected():
    log = [regular(1, (1,)), msg(1, 1), msg(1, 1)]
    with pytest.raises(EVSViolation):
        check_no_duplicates(log)


def test_closed_segment_divergence_detected():
    a = [regular(1, (1, 2)), msg(1, 1, payload="x"), regular(2, (1, 2))]
    b = [regular(1, (1, 2)), msg(1, 1, payload="y"), regular(2, (1, 2))]
    with pytest.raises(EVSViolation):
        check_virtual_synchrony({1: a, 2: b})


def test_open_segment_prefix_allowed():
    a = [regular(1, (1, 2)), msg(1, 1), msg(1, 2)]
    b = [regular(1, (1, 2)), msg(1, 1)]
    check_virtual_synchrony({1: a, 2: b})  # prefix-related: fine


def test_open_segment_divergence_detected():
    a = [regular(1, (1, 2)), msg(1, 1, payload="x")]
    b = [regular(1, (1, 2)), msg(1, 1, payload="y")]
    with pytest.raises(EVSViolation):
        check_virtual_synchrony({1: a, 2: b})


def test_clean_log_passes_everything():
    logs = {
        (pid, 0): [
            regular(pid, (pid,)),
            transitional(pid, (pid,)),
            regular(100, (1, 2)),
            msg(100, 1),
            msg(100, 2),
        ]
        for pid in (1, 2)
    }
    assert EVSChecker().check_logs(logs) == []


# ---------------------------------------------------------------------------
# Full-stack enforcement on real membership scenarios
# ---------------------------------------------------------------------------

def assert_evs(net):
    checker = EVSChecker()
    checker.check_logs(net.logs())
    checker.assert_ok()


def test_axioms_hold_through_formation_and_traffic():
    net = EVSNetwork([1, 2, 3, 4])
    net.run_until_converged()
    for pid in (1, 2, 3, 4):
        for i in range(8):
            net.submit(pid, (pid, i), Service.SAFE if i % 2 else Service.AGREED)
    net.run_quiet(400)
    assert_evs(net)


def test_axioms_hold_through_crash():
    net = EVSNetwork([1, 2, 3, 4])
    net.run_until_converged()
    for pid in (1, 2, 3, 4):
        for i in range(10):
            net.submit(pid, (pid, i))
    net.run_quiet(6)
    net.crash(4)
    net.run_until_converged()
    net.run_quiet(300)
    assert_evs(net)


def test_axioms_hold_through_partition_and_merge():
    net = EVSNetwork([1, 2, 3, 4, 5])
    net.run_until_converged()
    for pid in net.pids:
        net.submit(pid, ("pre", pid), Service.SAFE)
    net.run_quiet(5)
    net.set_partition({1, 2, 3}, {4, 5})
    net.run_until_converged()
    net.submit(1, "left")
    net.submit(4, "right")
    net.run_quiet(300)
    assert_evs(net)
    net.heal()
    net.run_until_converged()
    for pid in net.pids:
        net.submit(pid, ("post", pid))
    net.run_quiet(400)
    assert_evs(net)


def test_axioms_hold_through_late_join_and_cascade():
    net = EVSNetwork([1, 2, 3])
    net.run_until_converged()
    net.submit(2, "early", Service.SAFE)
    net.run_quiet(200)
    net.spawn(8)
    net.run_until_converged()
    net.crash(1)
    net.run_until_converged()
    net.submit(8, "late")
    net.run_quiet(300)
    assert_evs(net)
