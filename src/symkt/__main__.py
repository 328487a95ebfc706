"""``python -m symkt``: the command-line front end of :mod:`symkt.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
