"""Parent-against-change runs of one ``BENCHMARK.json`` workload.

``python3 scripts/perf_ab.py --workload udp_sat --pairs 10 --ref HEAD~1``
(``make perf-ab W=udp_sat PAIRS=10 REF=HEAD~1``) exports ``REF`` into a
temporary directory, then runs

    perf/run.py --workload W --seed k --seconds <run_seconds> --trace 0

once in that tree and once in this one for k = 1..PAIRS, alternating
which side goes first, each tree with its own ``perf/`` and ``src/``.
Per end-to-end metric it prints each side's median and quartiles, the
pairs the change won, and a verdict by the rule of the choosing-metrics
guide, section 8: a *gain* needs ten pairs or more, at least nine tenths
of them won (ties count for neither side) and a median better by more than the
distance between the parent's quartiles; a *regression* is a median worse
than the parent's by more than the metric's bound; a spread wider than the
bound leaves the metric *unresolved*, not unchanged.

Names, bounds, the command and the run length come from
``BENCHMARK.json``.  Minutes long (2 x PAIRS runs), so not part of CI.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: A gain needs this many pairs, and this share of them won (guide,
#: section 8).
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3]; a single run is its own quartiles."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> Dict[str, Any]:
    """Compare paired runs of one metric; ``parent[k]`` pairs ``change[k]``.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` the share of the
    parent's median by which the change's may be worse.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of runs per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    shift = sign * (c_med - p_med)  # > 0: the change is better
    allowed = bound * abs(p_med)
    if (len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
            and shift > p_q3 - p_q1):
        result = "gain"
    elif -shift > allowed:
        result = "regression"
    elif max(p_q3 - p_q1, c_q3 - c_q1) > allowed:
        result = "unresolved"
    else:
        result = "within bound"
    return {
        "verdict": result, "pairs": len(parent), "wins": wins,
        "losses": losses, "ties": len(parent) - wins - losses,
        "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
        "ratio": c_med / p_med if p_med else float("nan"),
    }


def run_once(tree: str, spec: Dict[str, Any], workload: str,
             seed: int) -> Dict[str, Any]:
    """One untraced pass in ``tree``; the result object of its last line."""
    command = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def export(ref: str, into: str) -> None:
    """The committed files of ``ref``, without touching this checkout."""
    tarball = os.path.join(into, "ref.tar")
    subprocess.run(["git", "-C", ROOT, "archive", "-o", tarball, ref],
                   check=True)
    shutil.unpack_archive(tarball, into)
    os.remove(tarball)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="udp_sat")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--ref", default="HEAD~1")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sides = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as parent_tree:
        export(args.ref, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], spec, args.workload, k)
                sides[side].append(result)
                print("pair %d %-6s failed %d of %d  %s" % (
                    k, side, result["failed"], result["attempted"],
                    "  ".join("%s %.4g" % (name, m["value"])
                              for name, m in result["metrics"].items())),
                      flush=True)
    print("\n%s, %d pairs, %s (parent) against the working tree (change)%s"
          % (args.workload, args.pairs, args.ref,
             "" if args.pairs >= MIN_PAIRS else
             "; fewer than %d pairs: no gain can be claimed" % MIN_PAIRS))
    for side, results in sides.items():
        print("%s: failed %d of %d operations" % (
            side, sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results)))
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent, change = ([r["metrics"][name]["value"] for r in sides[side]]
                          for side in ("parent", "change"))
        out = verdict(parent, change, metric["better"], metric["bound"])
        print("%-14s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  "
              "x%.3f  won %d/%d (%d ties)  %s" % (
                  name, out["parent"][1], out["parent"][0], out["parent"][2],
                  out["change"][1], out["change"][0], out["change"][2],
                  out["ratio"], out["wins"], out["pairs"], out["ties"],
                  out["verdict"].upper()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
