"""Differential tests: core engine (original config) vs Totem reference.

The reference in :mod:`repro.totem.reference` is an independent
transcription of the original Ring protocol.  Driving both over the same
workload and first-transmission loss pattern must produce identical
delivery sequences at every participant — the paper's claim that the
accelerated engine with ``Accelerated_window = 0`` and the conservative
priority method *is* the original protocol.
"""

import pytest

from repro import LoopbackRing, ProtocolConfig, Service
from repro.totem import ReferenceRing
from helpers import FirstTimeLoss, mixed_workload


def run_pair(seed, pids, per_pid, loss_p):
    plan = mixed_workload(seed, pids, per_pid, safe_fraction=0.3)

    ref_loss = FirstTimeLoss(seed + 1000, pids=pids, p=loss_p)
    reference = ReferenceRing(pids, personal_window=40, global_window=240,
                              drop_data=ref_loss.key_drop)
    for pid, payload, service in plan:
        reference.submit(pid, payload, service is Service.SAFE)
    reference.run()

    core_loss = FirstTimeLoss(seed + 1000, pids=pids, p=loss_p)
    core = LoopbackRing(pids, ProtocolConfig.original_ring(), drop_data=core_loss)
    for pid, payload, service in plan:
        core.submit(pid, payload, service)
    core.run(max_steps=1_000_000)

    return reference, core, plan


@pytest.mark.parametrize("seed", range(6))
def test_identical_delivery_under_loss(seed):
    pids = list(range(1, 6))
    reference, core, plan = run_pair(seed, pids, per_pid=35, loss_p=0.06)
    for pid in pids:
        assert reference.delivered_payloads(pid) == core.delivered_payloads(pid)
        assert len(reference.delivered_payloads(pid)) == len(plan)


def test_identical_delivery_no_loss_eight_nodes():
    pids = list(range(1, 9))
    reference, core, plan = run_pair(seed=99, pids=pids, per_pid=20, loss_p=0.0)
    for pid in pids:
        assert reference.delivered_seqs(pid) == core.delivered_seqs(pid)


def test_identical_seq_assignment():
    # Not only the delivery order: the seq assigned to each payload must
    # match, i.e. both protocols place every message identically.
    pids = [1, 2, 3]
    reference, core, _plan = run_pair(seed=7, pids=pids, per_pid=30, loss_p=0.05)
    ref_map = {
        m.payload: m.seq for m in reference.participants[1].delivered
    }
    core_map = {m.payload: m.seq for m in core.delivered[1]}
    assert ref_map == core_map


def test_heavy_loss_still_converges_identically():
    pids = [1, 2, 3, 4]
    reference, core, plan = run_pair(seed=11, pids=pids, per_pid=25, loss_p=0.2)
    for pid in pids:
        assert reference.delivered_payloads(pid) == core.delivered_payloads(pid)
        assert len(core.delivered_payloads(pid)) == len(plan)
