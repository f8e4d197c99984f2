import seams


def _participant():
    from repro.core import Participant, ProtocolConfig, Ring

    return Participant(0, Ring.of([0, 1, 2]), ProtocolConfig())


def test_attribute_reads_pass_through_unchanged():
    real = _participant()
    proxy = seams.ForwardingProxy(real, seams.NodeRecorder(0, 16),
                                  seams.PARTICIPANT_SEAMS)
    assert proxy.seams_missing == 0
    assert proxy.stats is real.stats
    assert proxy.token_has_priority == real.token_has_priority
    assert proxy.last_token_sent is real.last_token_sent
    assert proxy.backlog == real.backlog == 0
    assert (proxy.progress_since_token_send()
            == real.progress_since_token_send())


def test_timed_calls_reach_the_target_and_are_recorded():
    from repro.core import Service, initial_token

    real = _participant()
    recorder = seams.NodeRecorder(0, 16)
    proxy = seams.ForwardingProxy(real, recorder, seams.PARTICIPANT_SEAMS)
    proxy.submit("before", Service.AGREED)
    assert recorder.spans == 0, "nothing is recorded until enabled"
    recorder.enabled = True
    proxy.submit("x", Service.AGREED)
    actions = proxy.on_token(initial_token(real.ring.ring_id))
    assert real.backlog == 0 and real.stats.tokens_handled == 1
    assert actions, "on_token's actions come back through the proxy"
    assert proxy.last_token_sent is real.last_token_sent is not None
    assert recorder.calls[seams.NAMES.index("submit")] == 1
    assert recorder.calls[seams.NAMES.index("on_token")] == 1
    rows = list(recorder.rows())
    assert [row["name"] for row in rows] == ["submit", "on_token"]
    assert all(row["end_ns"] >= row["start_ns"] for row in rows)
    assert recorder.gap_ns >= 0


def test_spans_past_capacity_still_count():
    recorder = seams.NodeRecorder(0, capacity=2)
    recorder.enabled = True
    for k in range(5):
        recorder.add(seams.POLL, 10 * k, 10 * k + 4)
    assert recorder.spans == 5 and len(list(recorder.rows())) == 2
    assert recorder.total_ns[seams.POLL] == 20
    assert recorder.gap_ns == 4 * 6


def test_sends_name_the_core_call_that_caused_them():
    recorder = seams.NodeRecorder(0, 8)
    recorder.enabled = True
    recorder.add(seams.POLL, 0, 1)
    recorder.add(seams.NAMES.index("on_token"), 2, 3)
    recorder.add(seams.NAMES.index("send_token"), 4, 5)
    assert [row["cause"] for row in recorder.rows()] == [-1, -1, 1]


def test_a_missing_seam_is_counted_not_fatal():
    class Bare:
        stats = "kept"

        def on_token(self, token):
            return [token]

    proxy = seams.ForwardingProxy(Bare(), seams.NodeRecorder(0, 4),
                                  seams.PARTICIPANT_SEAMS)
    assert proxy.seams_missing == 2
    assert proxy.on_token(5) == [5] and proxy.stats == "kept"


def test_attribute_writes_reach_the_target():
    class Target:
        ring_id = 0

    target = Target()
    proxy = seams.ForwardingProxy(target, seams.NodeRecorder(0, 4), ())
    proxy.ring_id = 7
    assert target.ring_id == 7 and proxy.ring_id == 7


def test_install_wraps_every_node_and_poll_counts_idle():
    class Transport:
        def __init__(self):
            self.answers = [([], []), (["m"], ["t"])]

        def poll(self, timeout_s):
            return self.answers.pop(0)

        def send_data(self, obj):
            return None

        def send_data_batch(self, objs, cap):
            return None

        def send_token(self, obj, dst):
            return None

    class Node:
        def __init__(self):
            self.participant = _participant()
            self.transport = Transport()

    class Ring:
        nodes = {0: Node(), 1: Node()}

    recorders, missing = seams.install(Ring)
    assert missing == 0 and len(recorders) == 2
    seams.set_enabled(recorders, True)
    transport = Ring.nodes[0].transport
    assert transport.poll(0.0) == ([], [])
    assert transport.poll(0.0) == (["m"], ["t"])
    totals = seams.totals(recorders)
    assert totals["calls"]["poll"] == 2
    assert totals["idle_polls"] == 1
