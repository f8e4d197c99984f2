import pytest

import rollup


def test_package_of():
    assert rollup.package_of("/x/src/repro/core/participant.py") == "core"
    assert rollup.package_of("/x/src/repro/cli.py") == "other"
    assert rollup.package_of("/usr/lib/python3.11/heapq.py") == "other"


def test_builtins_are_charged_to_the_calling_package():
    core = ("/s/repro/core/a.py", 1, "f")
    net = ("/s/repro/net/b.py", 2, "g")
    driver = ("/bench/perf/x.py", 3, "h")
    append = ("~", 0, "<method 'append' of 'list' objects>")
    stats = {
        core: (1, 1, 2.0, 3.0, {}),
        net: (1, 1, 1.0, 1.5, {}),
        driver: (1, 1, 0.5, 9.0, {}),
        # 1.5 s inside list.append: 1.0 called from core, 0.5 from net.
        append: (3, 3, 1.5, 1.5, {core: (2, 2, 1.0, 1.0),
                                  net: (1, 1, 0.5, 0.5)}),
    }
    seconds = rollup.self_time_by_package(stats)
    assert seconds == {"core": 3.0, "net": 1.5, "other": 0.5}
    shares = rollup.shares(seconds, ("core", "net", "sim"))
    assert shares["core"] == pytest.approx(0.6)
    assert shares["sim"] == 0.0
    assert sum(shares.values()) == pytest.approx(1.0)


def test_shares_of_a_real_profile_sum_to_one():
    from repro.harness import LoopbackRing

    def work():
        ring = LoopbackRing(range(3))
        for i in range(300):
            ring.submit(i % 3, i)
        ring.run()
        return len(ring.delivered[0])

    delivered, seconds = rollup.profile_call(work)
    assert delivered == 300
    shares = rollup.shares(seconds, ("core", "harness"))
    assert abs(sum(shares.values()) - 1.0) <= 0.02
    assert shares["core"] > 0.2 and shares["harness"] > 0.05
    assert all(share >= 0.0 for share in shares.values())
