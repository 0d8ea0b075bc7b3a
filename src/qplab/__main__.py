"""``python -m qplab <command>``: the same command line as ``qplab``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
