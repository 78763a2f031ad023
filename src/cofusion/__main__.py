"""``python -m cofusion``: the command line, as the ``cofusion`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
