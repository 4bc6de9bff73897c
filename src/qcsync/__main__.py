"""`python -m qcsync`: the same command line as the `qcsync` console script."""

from .cli import entry

if __name__ == "__main__":
    entry()
