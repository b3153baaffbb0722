"""Compile time of the catalog: P1-P8 through the µP4C pass manager.

Compiles every catalog program the way the compile-catalog workload of
``perfbench/catalog.py`` does (``compile_catalog_program``): the µP4
composition to TNA and then to V1Model, and the hand-written monolithic
baseline to TNA.  Each compiler runs with an enabled ``Tracer``, so one
run yields both the program's compile time and its per-pass split
(frontend, link, analyze, compose, backend).  Sources are read before
the clock starts.  Results go to ``BENCH_compile.json`` at the repo
root.

Both gates are ratios inside one process, so host speed cancels out:

* P7's compile time is at most ``MAX_P7_P4_RATIO`` times P4's.  P7 has
  the largest byte stack, and a compose whose cost grows with the
  copying of type and declaration graphs shows up here first.
* ``midend.compose`` takes at most ``MAX_P7_COMPOSE_SHARE`` of P7's
  compile, summed over its three compilations.

Each program's time is the best of ``TRIALS`` compiles (the work is
fixed, so slower trials are interference).  Set
``BENCH_COMPILE_QUICK=1`` for a smoke run (CI) with one trial each.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.obs.trace import Tracer
from tests.integration.helpers import (
    RECIPES,
    catalog_sources,
    compile_catalog_program,
)

QUICK = os.environ.get("BENCH_COMPILE_QUICK") == "1"
TRIALS = 1 if QUICK else 3
MAX_P7_P4_RATIO = 12.0
MAX_P7_COMPOSE_SHARE = 0.35
PROGRAMS = sorted(RECIPES)
#: Top-level driver spans, grouped; ``backend.tna`` and
#: ``backend.v1model`` both count as ``backend``.
PASSES = ("frontend", "midend.link", "midend.analyze", "midend.compose", "backend")
OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_compile.json"


def compile_program(name, sources, mono_source):
    """Compile one program three ways; (seconds, per-pass ms)."""
    tracer = Tracer()
    start = time.perf_counter()
    compile_catalog_program(name, sources, mono_source, tracer=tracer)
    took = time.perf_counter() - start
    passes = dict.fromkeys(PASSES, 0.0)
    for root in tracer.roots:
        group = "backend" if root.name.startswith("backend.") else root.name
        passes[group] += root.duration_ms
    return took, passes


@pytest.fixture(scope="module")
def timings():
    inputs = {name: catalog_sources(name) for name in PROGRAMS}
    out = {}
    for name in PROGRAMS:
        took, passes = min(
            (compile_program(name, *inputs[name]) for _ in range(TRIALS)),
            key=lambda trial: trial[0],
        )
        out[name] = {
            "ms": round(took * 1000, 2),
            "passes_ms": {k: round(v, 2) for k, v in passes.items()},
        }
    p7 = out["P7"]
    summary = {
        "p7_p4_ratio": round(p7["ms"] / out["P4"]["ms"], 3),
        "p7_compose_share": round(p7["passes_ms"]["midend.compose"] / p7["ms"], 4),
    }
    OUT_PATH.write_text(
        json.dumps(
            {
                "bench": "compile_time",
                "quick": QUICK,
                "trials": TRIALS,
                "max_p7_p4_ratio": MAX_P7_P4_RATIO,
                "max_p7_compose_share": MAX_P7_COMPOSE_SHARE,
                **summary,
                "programs": out,
            },
            indent=2,
        )
        + "\n"
    )
    return out, summary


def test_every_program_timed(timings):
    programs, _ = timings
    assert sorted(programs) == PROGRAMS
    for name, block in programs.items():
        assert block["ms"] > 0, name
        # Pass spans run inside the program's clock.
        assert sum(block["passes_ms"].values()) <= block["ms"], name


def test_p7_p4_ratio(timings):
    _, summary = timings
    assert summary["p7_p4_ratio"] <= MAX_P7_P4_RATIO, summary


def test_p7_compose_share(timings):
    _, summary = timings
    assert summary["p7_compose_share"] <= MAX_P7_COMPOSE_SHARE, summary
