"""Reference digest for the fastpath-sharded workload, from the
reference interpreter.

The fastpath workload is stateless (P4, no registers) and injects no
faults, so every packet's verdict depends only on its bytes and ingress
port.  Routable traffic draws from a handful of templates, so the
interpreter runs each distinct ``(bytes, port)`` once and the verdict
stream for any packet count costs only the digest fold.  The shards and
the merged digests are computed with the program's own
``assign_shard``, ``shard_seed`` and ``update_digest``; a program that
grows register state makes this refuse rather than guess.

    python3 perfbench/reference.py --seed 1234 --packets 100000 --workers 2
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from repro.net.packet import Packet
from repro.targets.engine import assign_shard
from repro.targets.soak import (
    NUM_PORTS,
    SoakConfig,
    build_switch,
    compose_program,
    iter_stream_bytes,
    update_digest,
)


def fastpath_digest(seed: int, packets: int, workers: int,
                    program: str = "P4", policy: str = "flow-hash") -> str:
    config = SoakConfig(
        programs=[program], packets=packets, seed=seed, fault_rate=0.0,
        traffic="routable", exec_backend="interp",
    )
    switch = build_switch(config, program, compose_program(config, program))
    memo = {}
    shards = [hashlib.sha256() for _ in range(workers)]
    for index, data, port in iter_stream_bytes(config, program, NUM_PORTS):
        verdict = memo.get((data, port))
        if verdict is None:
            verdict = memo[(data, port)] = switch.process(Packet(data), port)
            if switch.pipeline.persistent:
                raise RuntimeError(
                    f"{program} holds register state; a memoized "
                    f"reference would be wrong"
                )
        update_digest(shards[assign_shard(index, data, workers, policy)],
                      index, verdict)
    merged = hashlib.sha256(
        "".join(d.hexdigest() for d in shards).encode()
    ).hexdigest()
    return hashlib.sha256(merged.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--packets", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args(argv)
    print(fastpath_digest(args.seed, args.packets, args.workers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
