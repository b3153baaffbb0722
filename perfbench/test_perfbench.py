"""Coverage and neutrality of the traced benchmark run.

Each workload runs once untraced and once traced, at a small size:

* every layer the workload exercises records at least one span, and the
  layers it bypasses record none;
* forked pool workers flush their own spans, one record per process;
* the traced process's output (soak digest, compile results) equals the
  untraced one's;
* a wrapped name that disappears fails the install instead of reading
  zero.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import layers  # noqa: E402
import run as bench  # noqa: E402

SMALL = {"fastpath-sharded": 5_000, "hostile-inline": 300, "compile-catalog": None}
SEED = 77

EXERCISED = {
    "fastpath-sharded": {
        "import", "frontend", "midend.link", "midend.analyze", "midend.compose",
        "catalog.compose", "backends.build", "pool.start", "pool.submit",
        "pool.close", "soak.stream_gen", "soak.digest", "engine.assign",
        "ring.put", "ring.get", "switch.batch", "exec.soa", "obs.snapshot",
    },
    "hostile-inline": {
        "import", "frontend", "midend.link", "midend.analyze", "midend.compose",
        "catalog.compose", "backends.build", "soak.stream_gen", "soak.digest",
        "switch.process", "exec.process", "faults.trip",
    },
    "compile-catalog": {
        "import", "frontend", "midend.link", "midend.analyze", "midend.compose",
        "midend.compose_mono", "backend.tna", "backend.v1model",
    },
}
BYPASSED = {
    "fastpath-sharded": ("backend.",),
    "hostile-inline": ("ring.", "pool.", "backend."),
    "compile-catalog": ("ring.", "pool."),
}


def _judge(workload, proc):
    if workload == "compile-catalog":
        return bench.check_catalog(proc, bench.load_expected()["tna"])
    # The untraced digest is the reference for the traced one.
    return bench.check_soak(proc, reference=None, per_process=0)


@pytest.fixture(scope="module", params=sorted(SMALL))
def runs(request, tmp_path_factory):
    workload = request.param
    os.makedirs(bench.STATE, exist_ok=True)
    trace_dir = str(tmp_path_factory.mktemp(workload))
    plain = bench.spawn(bench.workload_argv(workload, SEED, SMALL[workload]))
    traced = bench.spawn(
        bench.workload_argv(workload, SEED, SMALL[workload], traced_dir=trace_dir)
    )
    assert plain["rc"] == 0, plain["stderr"][-2000:]
    assert traced["rc"] == 0, traced["stderr"][-2000:]
    records = bench.read_records(trace_dir)
    shutil.rmtree(trace_dir)
    return workload, _judge(workload, plain), _judge(workload, traced), records


def _calls(records, name):
    return sum(r["calls"].get(name, 0) for r in records)


def test_traced_output_equals_untraced(runs):
    _, plain, traced, _ = runs
    assert plain["digest"] is not None
    assert traced["digest"] == plain["digest"]


def test_exercised_layers_record_spans(runs):
    workload, _, _, records = runs
    silent = sorted(n for n in EXERCISED[workload] if _calls(records, n) == 0)
    assert not silent, f"{workload}: no spans from {silent}"


def test_bypassed_layers_record_nothing(runs):
    workload, _, _, records = runs
    names = {n for r in records for n, c in r["calls"].items() if c}
    leaked = sorted(n for n in names if n.startswith(BYPASSED[workload]))
    assert not leaked, f"{workload}: spans from bypassed layers {leaked}"


def test_each_process_flushes_its_own_record(runs):
    workload, _, _, records = runs
    roles = sorted(r["role"] for r in records)
    workers = bench.WORKLOADS[workload]["workers"]
    assert roles == ["parent"] + ["worker"] * workers
    for record in records:
        if record["role"] == "worker":
            # Spans recorded after the fork, not inherited from the parent.
            assert record["calls"].get("ring.get", 0) > 0
            assert "pool.submit" not in record["calls"]


def test_layer_metrics_cover_every_name(runs):
    workload, _, traced, records = runs
    metrics = bench.layer_metrics({**traced, "speed": 1.0}, records)
    assert set(bench.LAYER_UNITS) - {"trace.overhead_frac"} <= set(metrics)


def test_fault_trip_spans_match_the_program_count(runs):
    workload, _, traced, records = runs
    if workload != "hostile-inline":
        pytest.skip("faults run only on hostile-inline")
    reported = sum(
        sum(block["fault_trips"].values())
        for block in traced["summary"]["programs"].values()
    )
    assert reported > 0
    assert sum(r["trips"] for r in records) == reported


def test_missing_wrapped_name_fails_loudly():
    import repro.targets.soak as soak

    before = soak.update_digest
    targets = (
        ("soak.digest", "repro.targets.soak", "update_digest"),
        ("gone", "repro.targets.soak", "no_such_function"),
        ("gone", "repro.targets.switch", "Switch.no_such_method"),
    )
    with pytest.raises(LookupError, match="no_such_function.*no_such_method"):
        layers.install(targets, rec=layers.Recorder())
    assert soak.update_digest is before  # nothing patched


def test_every_target_resolves():
    for _, module, path in layers.TARGETS:
        layers._resolve(module, path)


def test_speed_probe_times_kernels_and_stops():
    os.makedirs(bench.STATE, exist_ok=True)
    start = time.perf_counter()
    with bench.SpeedProbe(bench.workload_cpus("fastpath-sharded")) as probe:
        time.sleep(1.0)
        kernels = probe.kernels()
    assert probe.proc.returncode is not None  # stopped and reaped
    end = time.perf_counter()
    assert all(start <= t <= end and d > 0 for t, d in kernels)
    assert bench.speed_factor(kernels, [(start, end)]) > 0


def test_speed_factor_needs_enough_kernels():
    kernels = [(float(t), 0.002) for t in range(20)]
    assert bench.speed_factor(kernels, [(0.0, 4.0), (10.0, 19.0)]) == pytest.approx(
        bench.REFERENCE_S / 0.002)
    with pytest.raises(bench.RunError, match="speed probe"):
        bench.speed_factor(kernels, [(0.0, 3.0), (5.0, 6.0)])


def test_loop_clock_places_each_soak_loop_and_changes_nothing(tmp_path):
    os.makedirs(bench.STATE, exist_ok=True)
    path = str(tmp_path / "loops.json")
    plain = bench.spawn(bench.workload_argv("hostile-inline", SEED, 300))
    clocked = bench.spawn(bench.workload_argv("hostile-inline", SEED, 300, loops_out=path))
    assert clocked["rc"] == 0, clocked["stderr"][-2000:]
    sample = _judge("hostile-inline", clocked)
    assert sample["digest"] == _judge("hostile-inline", plain)["digest"]
    loops = bench.soak_loops(sample, path)
    assert len(loops) == 2  # P4 then P7
    end = clocked["start"] + clocked["wall_s"]
    assert clocked["start"] < loops[0][0] <= loops[0][1] < loops[1][0] <= loops[1][1] < end


def test_memoized_reference_matches_a_full_interp_run():
    import reference

    packets = 3_000
    proc = bench.spawn([
        sys.executable, "-m", "repro",
        *bench.soak_args("fastpath-sharded", SEED, packets, backend="interp"),
    ])
    assert proc["rc"] == 0, proc["stderr"][-2000:]
    expected = json.loads(proc["stdout"])["digest"]
    assert reference.fastpath_digest(SEED, packets, workers=2) == expected


def test_benchmark_json_lists_the_runner_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(bench.WORKLOADS)
