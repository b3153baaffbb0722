"""Telemetry overhead: metrics collection must stay within 5% of off.

Every hot-path report site (``METRICS.inc``/``observe`` in the switch
and the execution backends) is gated on a single ``enabled`` attribute
check, captured once per packet as ``metrics_on``.  This harness
measures the end-to-end packet rate of the exact-heavy P4 micro
workload with the registry disabled (the default) and enabled (what
``--stats-port``/``--metrics-out``/``--metrics`` turn on) on the
reference interpreter, and asserts the enabled run keeps >= 95% of the
disabled rate.  The codegen backend is not gated here yet: its
per-packet telemetry cost is above the 5% budget (see ROADMAP), and the
budget is not widened to admit it.

The point is to keep telemetry honest: live publishing is allowed to
cost something *between* packets (snapshot + queue put once per epoch),
but per-packet instrumentation — the part that scales with traffic —
must be near-free.  Results go to ``BENCH_telemetry_overhead.json`` at
the repo root (uploaded as a CI artifact by the bench-smoke job).

Set ``BENCH_TELEMETRY_QUICK=1`` for a fast smoke run (CI); quick runs
use a lenient threshold because shared runners are noisy.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.lib.catalog import build_pipeline
from repro.obs.metrics import METRICS
from repro.targets.backends import make_pipeline
from repro.targets.runtime_api import RuntimeAPI
from tests.integration.helpers import ENTRY_SETS, eth_ipv4, eth_ipv6

QUICK = os.environ.get("BENCH_TELEMETRY_QUICK") == "1"
COUNT = 300 if QUICK else 2000
REPEATS = 2 if QUICK else 5
# The contract is <= 5% overhead; CI smoke runs get slack for noise.
MAX_OVERHEAD = 0.25 if QUICK else 0.05
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_telemetry_overhead.json"

RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    payload = {
        "bench": "telemetry_overhead",
        "quick": QUICK,
        "packets_per_run": COUNT,
        "max_overhead": MAX_OVERHEAD,
        "workloads": RESULTS,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def build_instance(backend):
    instance = make_pipeline(build_pipeline("P4"), exec_backend=backend)
    api = RuntimeAPI(instance)
    for table, matches, act_micro, _act_mono, args in ENTRY_SETS["P4"]:
        api.add_entry(table, matches, act_micro, args)
    return instance


def _one_round(instance, packets):
    start = time.perf_counter()
    for i in range(COUNT):
        instance.process(packets[i % len(packets)].copy(), 1)
    return COUNT / (time.perf_counter() - start)


def paired_rates(instance, packets):
    """Best-of-N packets/sec with telemetry off and on, measured in
    interleaved rounds so machine-load drift hits both states equally
    instead of biasing whichever ran second."""
    for pkt in packets:  # warmup
        instance.process(pkt.copy(), 1)
    best_off = best_on = 0.0
    for _ in range(REPEATS):
        best_off = max(best_off, _one_round(instance, packets))
        METRICS.enable()
        try:
            best_on = max(best_on, _one_round(instance, packets))
        finally:
            METRICS.disable()
    return best_off, best_on


@pytest.mark.parametrize("backend", ["interp"])
def test_overhead_within_budget(backend):
    packets = [eth_ipv4(), eth_ipv4(dst="10.1.2.3"), eth_ipv6()]
    instance = build_instance(backend)
    assert METRICS.enabled is False  # measuring the real default
    METRICS.reset()
    try:
        rate_off, rate_on = paired_rates(instance, packets)
        observed = METRICS.histogram("pipeline.latency_us.lookup")
    finally:
        METRICS.reset()
    # The instrumented run must actually have recorded latencies —
    # otherwise we measured nothing.
    assert observed is not None and observed["count"] > 0
    overhead = 1.0 - rate_on / rate_off
    RESULTS[f"exact_heavy_P4_micro_{backend}"] = {
        "backend": backend,
        "packets": COUNT,
        "telemetry_off_pkts_per_sec": round(rate_off),
        "telemetry_on_pkts_per_sec": round(rate_on),
        "overhead_fraction": round(overhead, 4),
        "budget": MAX_OVERHEAD,
    }
    assert overhead <= MAX_OVERHEAD, RESULTS[f"exact_heavy_P4_micro_{backend}"]
