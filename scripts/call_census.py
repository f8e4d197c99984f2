#!/usr/bin/env python3
"""Call census: which functions under ``src/repro`` does a run never enter?

    python scripts/call_census.py [--keep DIR]
    make census

Runs a plan of commands, each labelled ``test`` (tier-1), ``use``
(``make examples``, CLI smokes, ``perf/run.py --smoke``) or ``bench``
(``pytest benchmarks/ --benchmark-disable``, quick mode: every benchmark
runs once, since ``--benchmark-only`` would pause the hook in each timed
round).  Every interpreter they start loads a ``sitecustomize.py`` that
this script writes into a work directory put first on ``PYTHONPATH`` —
the commands themselves and every child started with the inherited
environment, such as ``perf/run.py``'s per-workload children.  It
installs a ``sys.setprofile`` hook (and ``threading.setprofile`` for
threads started later) that notes each code object entered; at exit the
interpreter writes the ``(file, first line)`` of those under the census
root.  An interpreter whose hook was replaced by then (a second
``sys.setprofile`` or a profiler that did not restore it) lost every
later call: it says so, naming its label, and exits with status 3, so
the census fails rather than over-report.  The report then lists every
function and method under the root, from the AST with its line span,
that

* no run entered ("never entered"), or
* only ``test`` runs entered ("entered only under tests").

Every run writes its results under the work directory
(``REPRO_BENCH_RESULTS``), so no tracked ``bench_results/`` file is
rewritten.

Known gap: ``multiprocessing`` pool workers leave through ``os._exit``,
which skips ``atexit``, so calls made only inside a pool worker are
lost.  The plan therefore runs every sweep serially (it removes
``REPRO_BENCH_PROCESSES`` from each run's environment), where the same
functions run in the calling process.

Not a CI step: every Python call pays the hook, and the full plan takes
several times as long as tier-1 does.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.join(REPO, "src", "repro")

#: Loaded by every interpreter of a census run (see the module docstring).
SITECUSTOMIZE = '''\
import atexit, os, sys, tempfile, threading

def _census(out, root, label):
    entered = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered[id(code)] = code

    def dump():
        replaced = sys.getprofile() is not hook
        sys.setprofile(None)
        keys = {(os.path.abspath(code.co_filename), code.co_firstlineno)
                for code in entered.values()}
        lines = sorted("%s\\t%d\\n" % key for key in keys
                       if key[0].startswith(root))
        handle, name = tempfile.mkstemp(prefix=label + "-", dir=out)
        with os.fdopen(handle, "w") as stream:
            stream.writelines(lines)
        if replaced:
            # Calls made after the hook was replaced went uncounted.
            sys.stdout.flush()
            sys.stderr.write("call census: the %s run replaced the profile "
                             "hook; its later calls were not counted\\n"
                             % label)
            sys.stderr.flush()
            os._exit(3)

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)

if os.environ.get("CALL_CENSUS_OUT"):
    _census(os.environ["CALL_CENSUS_OUT"], os.environ["CALL_CENSUS_ROOT"],
            os.environ["CALL_CENSUS_LABEL"])
'''


class Function(NamedTuple):
    path: str
    first: int  # the first decorator's line, as ``co_firstlineno`` has it
    last: int
    qualname: str


def functions_under(root: str) -> List[Function]:
    """Every ``def`` in the ``.py`` files under ``root``, nested ones too."""
    found: List[Function] = []

    def walk(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append(Function(path, first, child.end_lineno,
                                      prefix + child.name))
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for directory, _dirs, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.abspath(os.path.join(directory, name))
                with open(path) as handle:
                    walk(ast.parse(handle.read(), path), path, "")
    return found


def census_env(out: str, root: str, label: str, site_dir: str) -> Dict[str, str]:
    """The environment of one labelled census run: hook on ``PYTHONPATH``,
    sweeps serial and quick, results beside ``out`` in ``results/``."""
    env = dict(os.environ)
    env.pop("REPRO_BENCH_PROCESSES", None)
    env.pop("REPRO_BENCH_FULL", None)
    env["REPRO_BENCH_RESULTS"] = os.path.join(
        os.path.dirname(os.path.abspath(out)), "results")
    path = [site_dir, os.path.join(REPO, "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env.update(PYTHONPATH=os.pathsep.join(path), CALL_CENSUS_OUT=out,
               CALL_CENSUS_ROOT=os.path.abspath(root), CALL_CENSUS_LABEL=label)
    return env


def write_sitecustomize(site_dir: str) -> None:
    os.makedirs(site_dir, exist_ok=True)
    with open(os.path.join(site_dir, "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE)


def load_entered(out: str) -> Dict[str, Set[Tuple[str, int]]]:
    """label -> every ``(file, first line)`` its interpreters entered."""
    entered: Dict[str, Set[Tuple[str, int]]] = {}
    for name in sorted(os.listdir(out)):
        label = name.split("-", 1)[0]
        with open(os.path.join(out, name)) as handle:
            for line in handle:
                path, first = line.rstrip("\n").split("\t")
                entered.setdefault(label, set()).add((path, int(first)))
    return entered


def classify(functions: Sequence[Function],
             entered: Dict[str, Set[Tuple[str, int]]],
             ) -> Tuple[List[Function], List[Function]]:
    """(never entered, entered only under ``test`` runs)."""
    tested = entered.get("test", set())
    used: Set[Tuple[str, int]] = set()
    for label, keys in entered.items():
        if label != "test":
            used |= keys
    never, only_tests = [], []
    for function in functions:
        key = (function.path, function.first)
        if key not in used:
            (only_tests if key in tested else never).append(function)
    return never, only_tests


def plan(workdir: str) -> List[Tuple[str, List[str]]]:
    """The census runs: tier-1, the examples, CLI smokes, perf smoke and
    the benchmarks."""
    cli = [sys.executable, "-m", "repro.cli"]
    obs = os.path.join(workdir, "obs")
    captures = os.path.join(workdir, "captures")
    return [
        ("test", [sys.executable, "-m", "pytest", "-q", "-p",
                  "no:cacheprovider"]),
        ("use", ["make", "examples", "PYTHON=" + sys.executable]),
        ("use", cli + ["campaign", "--seed", "1", "--scenarios", "2",
                       "--quiet", "--out-dir",
                       os.path.join(workdir, "campaigns")]),
        ("use", cli + ["churn", "--nodes", "10", "--seed", "1"]),
        ("use", cli + ["multiring", "--ms", "1,2", "--out",
                       os.path.join(workdir, "multiring.json")]),
        ("use", cli + ["obs-sample", "--out-dir", obs]),
        ("use", cli + ["trace-analyze", os.path.join(obs, "sim_sample.rtrace")]),
        ("use", cli + ["report", os.path.join(obs, "metrics_sample.json")]),
        ("use", cli + ["capture-sample", "--out-dir", captures]),
        ("use", cli + ["decode", os.path.join(captures, "sim_sample.rcap"),
                       "--summary"]),
        ("use", cli + ["lint", "src/repro", "--json",
                       os.path.join(workdir, "lint_report.json")]),
        ("use", cli + ["fig7", "--quiet"]),
        ("use", [sys.executable, "perf/run.py", "--smoke"]),
        ("bench", [sys.executable, "-m", "pytest", "benchmarks/",
                   "--benchmark-disable", "-q", "-p", "no:cacheprovider"]),
    ]


def _print(title: str, functions: Sequence[Function]) -> None:
    lines = sum(f.last - f.first + 1 for f in functions)
    print("%s: %d function(s), %d line(s)" % (title, len(functions), lines))
    for f in functions:
        print("  %s:%d-%d  %s" % (os.path.relpath(f.path, REPO), f.first,
                                  f.last, f.qualname))


def main(argv: Sequence[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="work directory to use and keep "
                             "(default: a temporary one, removed)")
    args = parser.parse_args(argv)
    workdir = args.keep or tempfile.mkdtemp(prefix="call-census-")
    out = os.path.join(workdir, "entered")
    site_dir = os.path.join(workdir, "site")
    os.makedirs(out, exist_ok=True)
    write_sitecustomize(site_dir)
    failed = 0
    try:
        for label, command in plan(workdir):
            print("== [%s] %s" % (label, " ".join(command)), flush=True)
            env = census_env(out, ROOT, label, site_dir)
            done = subprocess.run(command, cwd=REPO, env=env,
                                  stdout=subprocess.DEVNULL)
            if done.returncode:
                print("   exit %d (its calls still count)" % done.returncode)
                failed += 1
        never, only_tests = classify(functions_under(ROOT),
                                     load_entered(out))
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)
    _print("never entered", never)
    _print("entered only under tests", only_tests)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
