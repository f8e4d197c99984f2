"""The one writer for byte-stable JSON records.

Campaign summaries and repro files, bench records, metrics snapshots
and lint reports are all compared byte for byte across runs, so they
are all written the same way: sorted keys, two-space indent, one
trailing newline, parent directories created on demand.  Standard
library only, so any layer may import it.
"""

from __future__ import annotations

import json
import os
from typing import Any


def write_record(record: Any, path: str) -> str:
    """Write ``record`` to ``path`` as byte-stable JSON; returns ``path``."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
