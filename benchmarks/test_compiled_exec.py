"""Execution backends vs the tree-walking interpreter.

The behavioral target's packet rate is bounded by Python dispatch cost:
the reference interpreter re-walks the composed AST, re-resolves names,
and re-computes widths/masks for every packet.  The ``codegen`` backend
(:mod:`repro.targets.codegen`) pays those costs once at build time: it
emits the whole pipeline as Python source — locals instead of ``Env``
lookups, constants inlined — and ``compile()``s it to a single code
object, with an optional struct-of-arrays batch fast path.  The
``vector`` backend replaces that batch path with columnwise numpy
execution.

This harness measures every seam backend end-to-end on two workloads:

* **exact-heavy** — P4 micro with the standard FIB installed; match-
  action dominated (lpm + exact lookups, header rewrites);
* **parser-heavy** — P4 monolithic with no entries installed: every
  packet walks the native parser loop, extraction, and deparser and
  misses to default actions.  AST re-walking hurts most here.

Codegen must beat the interpreter by at least 3x on exact-heavy and
4.5x on parser-heavy (full runs).

plus the codegen batch (struct-of-arrays) mode measured separately
against per-packet codegen — digest-identical by construction — and one
sharded-engine soak per backend (same seed), asserting the verdict
digests are byte-identical: speed must not change semantics.
Results go to ``BENCH_compiled_exec.json`` at the repo root (uploaded
as a CI artifact by the bench-smoke job).

Set ``BENCH_COMPILED_QUICK=1`` for a fast smoke run (CI).
"""

import hashlib
import json
import os
import time
from pathlib import Path

import pytest

from repro.lib.catalog import build_monolithic, build_pipeline
from repro.targets.backends import EXEC_BACKENDS, make_pipeline
from repro.targets.vector import NUMPY_AVAILABLE
from repro.targets.engine import EngineConfig
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.soak import SoakConfig, run_soak
from tests.integration.helpers import ENTRY_SETS, eth_ipv4, eth_ipv6

QUICK = os.environ.get("BENCH_COMPILED_QUICK") == "1"
COUNT = 300 if QUICK else 2000
REPEATS = 2 if QUICK else 4
# Codegen-over-interp floors.  Each is the product of two former
# gates through a removed closure-compiled backend: closure/interp
# (exact 2.0x, parser 3.0x) times codegen/closure (1.5x); quick runs
# use the former quick gates (1.2x, 1.5x; 1.2x).  CI runners are noisy,
# so the full floors are asserted on full runs only.
MIN_EXACT_CODEGEN_SPEEDUP = 1.2 * 1.2 if QUICK else 2.0 * 1.5
MIN_PARSER_CODEGEN_SPEEDUP = 1.5 * 1.2 if QUICK else 3.0 * 1.5
# The vectorized backend must clearly beat codegen's batched SoA path on
# the exact-heavy workload (ISSUE 10 acceptance gate: >= 2x full runs).
MIN_VECTOR_VS_CODEGEN_BATCH = 1.2 if QUICK else 2.0
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_compiled_exec.json"

#: Backends measured this run; ``vector`` drops out without the
#: optional numpy extra (the workload blocks then simply omit it).
BACKENDS = tuple(
    b for b in EXEC_BACKENDS if b != "vector" or NUMPY_AVAILABLE
)

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    payload = {
        "bench": "compiled_exec",
        "quick": QUICK,
        "packets_per_run": COUNT,
        "workloads": RESULTS,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def build_backend(program, mode, backend, entries=True):
    """A pipeline executor, optionally with the standard entry set."""
    builder = build_pipeline if mode == "micro" else build_monolithic
    composed = builder(program)
    start = time.perf_counter()
    instance = make_pipeline(composed, exec_backend=backend)
    build_seconds = time.perf_counter() - start
    if entries:
        api = RuntimeAPI(instance)
        for table, matches, act_micro, act_mono, args in ENTRY_SETS[program]:
            action = act_micro if mode == "micro" else act_mono
            api.add_entry(table, matches, action, args)
    return instance, build_seconds


def pkt_rate(instance, packets):
    """Best-of-N packets/sec through ``instance.process``."""
    for pkt in packets:  # warmup
        instance.process(pkt.copy(), 1)
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        for i in range(COUNT):
            instance.process(packets[i % len(packets)].copy(), 1)
        best = max(best, COUNT / (time.perf_counter() - start))
    return best


def run_pair(name, program, mode, packets, entries=True):
    """Time every backend on one workload; record + sanity check."""
    rates, builds = {}, {}
    for backend in BACKENDS:
        instance, build_seconds = build_backend(
            program, mode, backend, entries=entries
        )
        builds[backend] = build_seconds
        rates[backend] = pkt_rate(instance, packets)
        if entries:
            # The corpus must actually flow: at least one packet emitted.
            outs = instance.process(packets[0].copy(), 1)
            assert outs, f"{backend} dropped the whole corpus on {program}"
    block = {
        "program": program,
        "mode": mode,
        "entries_installed": entries,
        "packets": COUNT,
    }
    for backend in BACKENDS:
        block[f"{backend}_pkts_per_sec"] = round(rates[backend])
        block[f"{backend}_usec_per_pkt"] = round(1e6 / rates[backend], 1)
        if backend != "interp":
            block[f"{backend}_build_seconds"] = round(builds[backend], 4)
    block["codegen_speedup"] = round(rates["codegen"] / rates["interp"], 2)
    RESULTS[name] = block
    return block


def test_exact_heavy():
    """Match-action dominated: P4 micro with its FIB installed."""
    packets = [eth_ipv4(), eth_ipv4(dst="10.1.2.3"), eth_ipv6()]
    result = run_pair("exact_heavy_P4_micro", "P4", "micro", packets)
    # Table lookups go through the same TableRuntime on every backend,
    # so the gain here is dispatch-only; it must still be a clear win.
    assert result["codegen_speedup"] >= MIN_EXACT_CODEGEN_SPEEDUP, result


def test_parser_heavy():
    """Parser/extraction dominated: P4 monolithic, native parser loop,
    no entries installed — every packet walks the parser and deparser
    and misses to the default action, so AST-dispatch cost dominates."""
    packets = [eth_ipv4(), eth_ipv4(dst="10.1.2.3"), eth_ipv6()]
    result = run_pair(
        "parser_heavy_P4_mono", "P4", "mono", packets, entries=False
    )
    assert result["codegen_speedup"] >= MIN_PARSER_CODEGEN_SPEEDUP, result


def test_batch_soa():
    """Codegen batch (struct-of-arrays) mode vs per-packet codegen.

    Measured through the same generated module: parse all lanes into a
    flat byte arena, run the body per lane, deparse survivors at the
    end.  The gain over per-packet codegen is the amortized per-call
    overhead (one Python call per 256 lanes instead of one per packet);
    the body itself is already generated code either way.  The verdict-
    relevant outputs must be identical lane for lane — digest parity is
    asserted here on the raw output bytes/ports.
    """
    instance, _ = build_backend("P4", "micro", "codegen", entries=True)
    assert instance.batch_supported
    packets = [eth_ipv4(), eth_ipv4(dst="10.1.2.3"), eth_ipv6()]
    lanes = 256
    datas = [packets[i % len(packets)].tobytes() for i in range(lanes)]
    ports = [1] * lanes
    pkts = [packets[i % len(packets)] for i in range(lanes)]

    def lane_digest(results):
        digest = hashlib.sha256()
        for outputs in results:
            for out in outputs:
                digest.update(out.packet.tobytes())
                digest.update(bytes((out.port,)))
        return digest.hexdigest()

    # Per-packet reference (and rate).
    per_pkt = []
    for data, port, pkt in zip(datas, ports, pkts):
        per_pkt.append(instance.process(pkt, port))
    rounds = max(1, COUNT // lanes)
    start = time.perf_counter()
    for _ in range(rounds):
        for data, port, pkt in zip(datas, ports, pkts):
            instance.process(pkt, port)
    per_pkt_rate = rounds * lanes / (time.perf_counter() - start)

    # Batch mode: identical lanes, one call per batch.
    batch = instance.process_soa(datas, ports, pkts)
    assert all(exc is None for _, _, exc in batch)
    assert lane_digest([outs for outs, _, _ in batch]) == lane_digest(
        per_pkt
    ), "batch mode diverged from per-packet codegen"
    start = time.perf_counter()
    for _ in range(rounds):
        instance.process_soa(datas, ports, pkts)
    batch_rate = rounds * lanes / (time.perf_counter() - start)

    RESULTS["batch_soa_P4_micro"] = {
        "program": "P4",
        "mode": "micro",
        "lanes_per_batch": lanes,
        "packets": rounds * lanes,
        "codegen_pkts_per_sec": round(per_pkt_rate),
        "codegen_batch_pkts_per_sec": round(batch_rate),
        "batch_vs_per_packet": round(batch_rate / per_pkt_rate, 2),
        "digests_match": True,
    }


def test_sharded_engine_per_backend():
    """One sharded soak per backend: same digest, comparable elapsed."""
    config = dict(
        programs=["P4"],
        packets=1000 if QUICK else 5000,
        seed=1234,
        fault_rate=0.1,
    )
    block = {}
    digests = {}
    for backend in BACKENDS:
        start = time.perf_counter()
        summary = run_soak(
            SoakConfig(exec_backend=backend, **config),
            engine=EngineConfig(workers=2),
        )
        elapsed = time.perf_counter() - start
        assert summary["ok"], summary
        digests[backend] = summary["digest"]
        block[backend] = {
            "elapsed_seconds": round(elapsed, 3),
            "digest": summary["digest"],
        }
    assert len(set(digests.values())) == 1, digests
    RESULTS["sharded_engine_P4"] = {
        "workers": 2,
        "packets": config["packets"],
        "digests_match": True,
        **block,
    }


@pytest.mark.skipif(not NUMPY_AVAILABLE, reason="numpy not installed")
def test_vector_batch():
    """Columnwise numpy batches vs codegen's per-lane SoA batches.

    Same exact-heavy P4 workload, same arena layout, swept over the
    ``--batch-lanes`` settings the engine exposes: larger batches
    amortize more per numpy op, so the sweep shows where the curve
    flattens.  Lane digests must match codegen's batch output bit for
    bit at every lane count, and the 256-lane point gates the
    ISSUE 10 acceptance ratio.
    """
    codegen, _ = build_backend("P4", "micro", "codegen", entries=True)
    vector, _ = build_backend("P4", "micro", "vector", entries=True)
    assert vector.vector_plan is not None, vector.vector_decline_reason
    packets = [eth_ipv4(), eth_ipv4(dst="10.1.2.3"), eth_ipv6()]

    def lane_digest(results):
        digest = hashlib.sha256()
        for outputs, reason, exc in results:
            assert exc is None
            for out in outputs or ():
                digest.update(out.packet.tobytes())
                digest.update(bytes((out.port,)))
        return digest.hexdigest()

    def batch_rate(instance, datas, ports, pkts, rounds):
        instance.process_soa(datas, ports, pkts)  # warmup
        best = 0.0
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(rounds):
                instance.process_soa(datas, ports, pkts)
            best = max(best, rounds * len(datas) / (time.perf_counter() - start))
        return best

    sweep = {}
    ratio_at_256 = None
    for lanes in (64, 256, 1024):
        datas = [packets[i % len(packets)].tobytes() for i in range(lanes)]
        ports = [1] * lanes
        pkts = [packets[i % len(packets)] for i in range(lanes)]
        assert lane_digest(vector.process_soa(datas, ports, pkts)) == lane_digest(
            codegen.process_soa(datas, ports, pkts)
        ), f"vector diverged from codegen batch at {lanes} lanes"
        rounds = max(1, (COUNT * 4) // lanes)
        cg = batch_rate(codegen, datas, ports, pkts, rounds)
        vec = batch_rate(vector, datas, ports, pkts, rounds)
        sweep[str(lanes)] = {
            "codegen_batch_pkts_per_sec": round(cg),
            "vector_batch_pkts_per_sec": round(vec),
            "vector_vs_codegen_batch": round(vec / cg, 2),
        }
        if lanes == 256:
            ratio_at_256 = vec / cg
    RESULTS["vector_batch_P4_micro"] = {
        "program": "P4",
        "mode": "micro",
        "digests_match": True,
        "gate_lanes": 256,
        "min_vector_vs_codegen_batch": MIN_VECTOR_VS_CODEGEN_BATCH,
        "lanes_sweep": sweep,
    }
    assert ratio_at_256 >= MIN_VECTOR_VS_CODEGEN_BATCH, sweep
