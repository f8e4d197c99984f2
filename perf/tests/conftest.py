"""Tests of the benchmark itself; run with ``python -m pytest perf/tests -q``
(tier-1 collects ``tests/`` only)."""

import os
import sys

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (PERF, os.path.join(os.path.dirname(PERF), "src")):
    if path not in sys.path:
        sys.path.insert(0, path)
