#!/usr/bin/env python3
"""The broad net for membership safety: thousands of seeded fault schedules.

    python scripts/vs_sweep.py [--seeds 6000]

Runs the membership fuzzer's ``run_schedule`` (submits, crashes,
partitions and heals on ``EVSNetwork``, then ``EVSChecker`` over every
incarnation's log; ``tests/test_membership_fuzz.py``) over seeds
``0 .. seeds-1`` for each (processes, operations) in (2, 2), (3, 2),
(3, 3) and (4, 3): 24,000 schedules at the default, one worker process
per CPU, 2 to 6 minutes on two CPUs.  Prints the schedule count and,
for every failing schedule, its error's first line (for a checker
verdict, the violation count and the first violated axiom), and exits
1 if any failed.  Not part of tier-1.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from test_membership_fuzz import run_schedule  # noqa: E402

#: (processes, fault operations) per schedule.
SHAPES = ((2, 2), (3, 2), (3, 3), (4, 3))


def check(schedule):
    """``schedule`` = (seed, n, operations) -> None, or why it failed."""
    try:
        run_schedule(*schedule)
    except Exception as error:  # noqa: BLE001 - every failure is reported
        return schedule, "%s: %s" % (type(error).__name__, error)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=6000,
                        help="seeds per shape (default 6000)")
    args = parser.parse_args(argv)
    schedules = [(seed, n, operations) for n, operations in SHAPES
                 for seed in range(args.seeds)]
    context = multiprocessing.get_context("spawn")
    with context.Pool(os.cpu_count() or 1) as pool:
        failures = sorted(
            failure for failure in pool.imap_unordered(check, schedules,
                                                       chunksize=50)
            if failure is not None
        )
    print("vs-sweep: %d schedules, %d failing" % (len(schedules),
                                                   len(failures)))
    for (seed, n, operations), error in failures:
        print("  seed=%d n=%d operations=%d  %s"
              % (seed, n, operations, error.splitlines()[0]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
