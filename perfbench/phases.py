"""Untraced in-process soak child with a clock on its soak loops.

Runs ``python3 -m repro <args>`` unchanged, except that the time each
``repro.targets.soak.soak_program`` call returns is noted, one per
program; at exit the times go to ``--out`` as a JSON list.  With the
``elapsed_s`` the program reports for each program, they place every
soak loop on the system-wide monotonic clock, so the runner can scale a
loop's time by the host's speed while that loop ran rather than over
the whole process.  No other function is wrapped and the loop itself is
untouched.  A program without ``soak_program`` exits with
``layers.TARGET_GONE_EXIT`` instead of running unclocked.

    python3 perfbench/phases.py --out FILE -- soak --exec vector ...
"""

from __future__ import annotations

import json
import sys
import time

from layers import TARGET_GONE_EXIT


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: phases.py --out FILE -- <repro args>", file=sys.stderr)
        return 2
    out, args = argv[1], argv[3:]
    import repro.targets.soak as soak
    from repro.cli import main as repro_main

    inner = getattr(soak, "soak_program", None)
    if inner is None:
        print("perfbench: repro.targets.soak.soak_program is gone", file=sys.stderr)
        return TARGET_GONE_EXIT
    ends = []

    def soak_program(*a, **kw):
        try:
            return inner(*a, **kw)
        finally:
            ends.append(time.perf_counter())

    soak.soak_program = soak_program
    try:
        return repro_main(args)
    finally:
        with open(out, "w") as fh:
            json.dump(ends, fh)


if __name__ == "__main__":
    sys.exit(main())
