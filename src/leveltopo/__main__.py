"""``python -m leveltopo``: the command-line interface, also from a checkout."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
