"""``python -m powerdenom``: the same command line as ``powerdenom``."""

from .cli import run

if __name__ == "__main__":
    run()
