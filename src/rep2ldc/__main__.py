"""`python -m rep2ldc`: the command-line interface of rep2ldc.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
