"""Run the command line tool as ``python -m netgrad``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
