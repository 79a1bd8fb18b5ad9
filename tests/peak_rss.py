"""Run a command and fail when its peak resident set size is above a bound.

    python3 tests/peak_rss.py BOUND_MB COMMAND [ARG ...]

Runs COMMAND, failing if it exits non-zero, then prints the peak RSS of the
waited-for children (``RUSAGE_CHILDREN``) to stderr, and exits 1 with a
message when it is above BOUND_MB.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int | str:
    bound = int(argv[0])
    subprocess.run(argv[1:], check=True)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {rss:.0f} MB", file=sys.stderr)
    return f"peak RSS {rss:.0f} MB is above {bound} MB" if rss > bound else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
