"""The CLI's one process entry, for ``python -m mukailat`` and the installed ``mukailat``."""

import gc
import sys

from .cli import main


def run():
    # The import-time objects live until the process ends: frozen, they are
    # skipped by every later collection, the exit-time ones included.  Tests
    # call main() in-process, so the freeze is here and not in main().
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
