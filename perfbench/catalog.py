"""The compile-catalog workload: the paper's own compiler workload.

One cold process drives the ``Up4Compiler`` pass manager (frontend,
link, analyze, midend, backend) over every catalog program P1-P8: each
µP4 composition goes to TNA and to V1Model, and each hand-written
monolithic baseline goes to TNA.  No packets run.  Sources are read
before the clock starts; ``compile_s`` is the time inside the compile
calls.

``--check`` runs the output check instead: for each program, the µP4
composition and its monolithic baseline must emit the same port and the
same bytes for every packet of a seeded routable packet set (the
paper's micro == mono equivalence), on the reference interpreter.

    python3 perfbench/catalog.py
    python3 perfbench/catalog.py --check --seed 1234 --packets 300
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro import CompilerOptions, Up4Compiler
from repro.lib.catalog import COMPOSITIONS, EXTRA_COMPOSITIONS
from repro.lib.loader import load_module_source

RECIPES = {**COMPOSITIONS, **EXTRA_COMPOSITIONS}
PROGRAMS = sorted(RECIPES)


def _compile_program(name: str, sources, mono_source) -> dict:
    tna = Up4Compiler(CompilerOptions(target="tna"))
    modules = [tna.frontend(text, f"{m}.up4") for m, text in sources]
    result = tna.compile_modules(modules[0], modules[1:])
    v1model = Up4Compiler(CompilerOptions(target="v1model")).backend(
        result.composed
    )
    mono = Up4Compiler(CompilerOptions(target="tna", monolithic=True))
    mono_result = mono.compile_modules(
        mono.frontend(mono_source, f"{name.lower()}.p4")
    )
    report, mono_report = result.target_output, mono_result.target_output
    return {
        "tna_stages": report.num_stages,
        "tna_phv_bits": report.bits_allocated,
        "mono_tna_stages": mono_report.num_stages,
        "mono_tna_phv_bits": mono_report.bits_allocated,
        "v1model_lines": len(v1model.source_text.splitlines()),
    }


def compile_catalog(programs=PROGRAMS) -> dict:
    """Compile every program; per-program seconds, TNA resources and
    failures (a program that raises counts as failed, not as a crash)."""
    inputs = {
        name: (
            [(m, load_module_source(m)) for m in RECIPES[name]],
            load_module_source(name.lower(), "monolithic"),
        )
        for name in programs
    }
    out, failed, compile_s = {}, {}, 0.0
    for name in programs:
        start = time.perf_counter()
        try:
            out[name] = _compile_program(name, *inputs[name])
        except Exception as exc:  # noqa: BLE001 - counted as a failed program
            failed[name] = f"{type(exc).__name__}: {exc}"
            out[name] = {}
        took = time.perf_counter() - start
        out[name]["s"] = took
        compile_s += took
    return {"compile_s": compile_s, "programs": out, "failed": failed}


def check_equivalence(seed: int, packets: int, programs=PROGRAMS) -> dict:
    """Per program, the number of packets on which micro and mono differ
    (``-1`` when either side fails to build)."""
    from repro.net.packet import Packet
    from repro.targets.soak import (
        NUM_PORTS,
        SoakConfig,
        build_switch,
        compose_program,
        iter_stream_bytes,
    )

    out = {}
    for name in programs:
        switches = []
        try:
            for mode in ("micro", "mono"):
                config = SoakConfig(
                    programs=[name], packets=packets, seed=seed,
                    fault_rate=0.0, traffic="routable", mode=mode,
                    exec_backend="interp",
                )
                switches.append(
                    build_switch(config, name, compose_program(config, name))
                )
        except Exception:  # noqa: BLE001 - counted as a failed program
            out[name] = -1
            continue
        mismatches = 0
        for _, data, port in iter_stream_bytes(config, name, NUM_PORTS):
            micro, mono = (
                [(o.port, o.packet.tobytes()) for o in s.inject(Packet(data), port)]
                for s in switches
            )
            mismatches += micro != mono
        out[name] = mismatches
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--packets", type=int, default=300)
    args = parser.parse_args(argv)
    if args.check:
        print(json.dumps({"mismatches": check_equivalence(args.seed, args.packets)}))
    else:
        print(json.dumps(compile_catalog()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
