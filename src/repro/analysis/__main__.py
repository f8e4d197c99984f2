"""``python -m repro.analysis`` — alias for ``python -m repro.cli lint``."""

import sys

from ..cli import main

if __name__ == "__main__":
    raise SystemExit(main(["lint", *sys.argv[1:]]))
