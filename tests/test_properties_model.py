"""Model-based property tests: the receive window's delivery and the
group table vs straightforward reference models."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReceiveWindow, Service
from repro.core.messages import DataMessage
from repro.spreadlike import ClientId, GroupTable


# ---------------------------------------------------------------------------
# ReceiveWindow delivery vs a brute-force model
# ---------------------------------------------------------------------------

def msg(seq, safe):
    return DataMessage(
        seq=seq, pid=1, round=1,
        service=Service.SAFE if safe else Service.AGREED,
    )


@st.composite
def delivery_scenarios(draw):
    """A randomized interleaving of arrivals and token sends."""
    n = draw(st.integers(min_value=1, max_value=30))
    safe_flags = draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    )
    arrival_order = draw(st.permutations(list(range(1, n + 1))))
    # Interleave token-send events (carrying arus) among arrivals.
    events = [("arrive", seq) for seq in arrival_order]
    token_count = draw(st.integers(min_value=0, max_value=10))
    for _i in range(token_count):
        pos = draw(st.integers(min_value=0, max_value=len(events)))
        aru = draw(st.integers(min_value=0, max_value=n))
        events.insert(pos, ("token", aru))
    return safe_flags, events


@given(delivery_scenarios())
@settings(max_examples=200, deadline=None)
def test_window_delivery_matches_model(scenario):
    safe_flags, events = scenario
    window = ReceiveWindow()
    delivered = []

    # Reference model state.
    model_received = set()
    model_arus = []
    model_delivered = []

    def model_safe_bound():
        best = 0
        for a, b in zip(model_arus, model_arus[1:]):
            best = max(best, min(a, b))
        return best

    def model_collect():
        bound = model_safe_bound()
        while True:
            nxt = len(model_delivered) + 1
            if nxt not in model_received:
                return
            if safe_flags[nxt - 1] and nxt > bound:
                return
            model_delivered.append(nxt)

    for kind, value in events:
        if kind == "arrive":
            delivered.extend(
                m.seq for m in window.receive(msg(value, safe_flags[value - 1])))
            model_received.add(value)
            model_collect()
        else:
            window.note_token_sent(value)
            delivered.extend(m.seq for m in window.release())
            model_arus.append(value)
            model_collect()
        assert delivered == model_delivered
        assert window.safe_bound == model_safe_bound()


# ---------------------------------------------------------------------------
# GroupTable vs a dict-of-lists model
# ---------------------------------------------------------------------------

group_ops = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "disconnect"]),
        st.sampled_from(["g1", "g2", "g3"]),
        st.integers(min_value=0, max_value=2),   # daemon
        st.sampled_from(["a", "b", "c"]),        # client name
    ),
    max_size=60,
)


@given(group_ops)
@settings(max_examples=200, deadline=None)
def test_group_table_matches_model(ops):
    table = GroupTable()
    model = {}

    for op, group, daemon, name in ops:
        client = ClientId(daemon, name)
        if op == "join":
            result = table.join(group, client)
            members = model.setdefault(group, [])
            assert result == (client not in members)
            if client not in members:
                members.append(client)
        elif op == "leave":
            result = table.leave(group, client)
            members = model.get(group, [])
            assert result == (client in members)
            if client in members:
                members.remove(client)
                if not members:
                    del model[group]
        else:
            left = table.disconnect(client)
            expected_left = sorted(
                g for g, members in model.items() if client in members
            )
            assert list(left) == expected_left
            for g in expected_left:
                model[g].remove(client)
                if not model[g]:
                    del model[g]
        # Full-state equivalence after every operation.
        assert table.snapshot() == {
            g: tuple(members) for g, members in model.items()
        }
        assert table.groups() == tuple(sorted(model))
