"""Host speed probe: how fast the CPUs a workload runs on are right now.

A shared host's CPUs change speed by up to 1.6x within seconds, as
neighbours load the cores they share with this machine.  The probe runs
a fixed pure-Python kernel, about a millisecond long, on each of the
given CPUs in turn, with a pause after each, and appends one line per
kernel to ``--out``::

    <time.perf_counter() at the end> <cpu> <thread CPU seconds taken>

``time.perf_counter`` is the system-wide monotonic clock, so the runner
can select the kernels that ran while a workload process lived.  The
kernel's CPU time, not its wall time, is recorded, so a kernel that
waits for a busy CPU does not read as a slow one.  SIGTERM stops it,
and so does the end of the process that started it.

    python3 perfbench/probe.py --cpus 0,1 --interval 0.02 --out probe.txt
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

KERNEL_ITERATIONS = 7000
# Seconds the kernel takes on a reference CPU, the fast state of the
# host it was written on; the runner reports timings in seconds of
# that CPU.
REFERENCE_S = 0.001


def kernel(n: int = KERNEL_ITERATIONS) -> int:
    """Dict stores and lookups with integer arithmetic, the interpreter
    work the compiler and the soak loops are made of."""
    table, total = {}, 0
    for i in range(n):
        table[i & 1023] = i
        total += table.get(i ^ 5, 0) & 7
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpus", required=True)
    parser.add_argument("--interval", type=float, default=0.02)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    cpus = [int(c) for c in args.cpus.split(",")]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    with open(args.out, "w", buffering=1) as out:
        while os.getppid() == parent:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.thread_time()
                kernel()
                took = time.thread_time() - start
                out.write(f"{time.perf_counter():.6f} {cpu} {took:.9f}\n")
                time.sleep(args.interval)
    return 0


if __name__ == "__main__":
    sys.exit(main())
