"""``python -m firmgrowth``: the command line of :mod:`firmgrowth.cli`, with its exit code."""

import sys

from firmgrowth.cli import main

if __name__ == "__main__":
    sys.exit(main())
