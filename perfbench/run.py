"""Repository benchmark: cold processes of the µP4 reproduction, measured
end to end from outside, and per layer in a separate traced run.

    python3 perfbench/run.py --workload fastpath-sharded --seed 1234 \\
        --seconds 30 --trace 0

Workloads (see ``WORKLOADS``; the rationale for each is the ``why`` in
``BENCHMARK.json``):

* ``fastpath-sharded``: ``repro soak --programs P4 --traffic routable
  --fault-rate 0 --exec vector --workers 2``, 200k packets per process.
* ``hostile-inline``: ``repro soak --exec vector`` with every other soak
  default (P4+P7, mixed hostile traffic, fault rate 0.1, in-process),
  10k packets per program per process.
* ``compile-catalog``: ``perfbench/catalog.py``, the pass manager over
  P1-P8 (µP4 to TNA and V1Model, monolithic to TNA).

The first run of a workload in a checkout makes one discarded warm-up
process, which fills the benchmark-owned bytecode and codegen caches
under ``.bench_build/``.  A run then starts one cold process at a time,
never two at once, until ``--seconds`` is used up.  The load is
closed-loop: the soak parent is the only generator and pushes packets
as fast as ring backpressure admits.  Timings are medians over the
processes of the run.

A shared host's CPUs change speed by up to 1.6x within seconds, so a
raw timing mostly measures the neighbours.  In-process workloads run
pinned to one CPU, the sharded soak on all of them, and ``probe.py``
times a fixed kernel on those CPUs while the processes run.  Every
timing is reported in reference seconds: the measured seconds times
the probe's reference time over its mean time during that process, or,
for hostile-inline's soak loops, which ``phases.py`` puts on the clock,
during those loops.

With ``--trace 0`` the run reports end-to-end metrics from process wall
clock, ``os.wait4`` resource use and the program's own JSON summary.
With ``--trace 1`` it alternates untraced processes with traced ones
(``perfbench/layers.py``) and reports per-layer metrics, the traced
run's attribution and its overhead.

Every process's output is checked: soak digests against the reference
interpreter's (pinned for the default seed in ``expected.json``, derived
once for any other), compile-catalog TNA resources against ``expected.json``
and micro == mono equivalence on a seeded routable packet set.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every check passed.  Where the benchmark cannot run (no program source,
more workers than cores, another workload running) it prints no result
and exits 2.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__

import argparse  # noqa: E402
import fcntl  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

from layers import TARGET_GONE_EXIT  # noqa: E402
from probe import REFERENCE_S  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
DEFAULT_SEED = 1234
MIN_SAMPLES = 3
MIN_PAIRS = 2  # traced runs: untraced + traced processes
CHILD_TIMEOUT_S = 150.0
WARMUP_TIMEOUT_S = 600.0
CHECK_PACKETS = 300
WARMUP_PACKETS = 200
PROBE_INTERVAL_S = 0.02
MIN_PROBE_KERNELS = 10  # per workload process

WORKLOADS = {
    "fastpath-sharded": {"kind": "soak", "workers": 2, "packets": 200_000},
    "hostile-inline": {"kind": "soak", "workers": 0, "packets": 10_000},
    "compile-catalog": {"kind": "catalog", "workers": 0, "programs": 8},
}

# End-to-end metrics.  ``work_s`` is the program-reported run time (the
# sum of soak ``elapsed_s``) or the compile time; ``items`` are packets
# or compiled programs.  Every timing is in reference seconds: measured
# seconds times the process's speed factor (see ``speed_factor``).
E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "items_per_s": "1/s",
    "run_items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "import.busy_s": "s",
    "frontend.busy_s": "s",
    "frontend.calls": "count",
    "midend.link_s": "s",
    "midend.analyze_s": "s",
    "midend.compose_s": "s",
    "midend.compose_mono_s": "s",
    **{f"compile.P{i}_s": "s" for i in range(1, 9)},
    "catalog.compose_s": "s",
    "backend.tna_s": "s",
    "backend.v1model_s": "s",
    "backends.build_s": "s",
    "backends.builds": "count",
    "codegen.cache_hit_frac": "fraction",
    "pool.start_s": "s",
    "pool.close_s": "s",
    "pool.submit_s": "s",
    "pool.collect_wait_s": "s",
    "soak.stream_gen_s": "s",
    "soak.digest_s": "s",
    "engine.assign_s": "s",
    "engine.worker_busy_s.max": "s",
    "engine.worker_busy_s.min": "s",
    "engine.shard_skew": "ratio",
    "ring.put_s": "s",
    "ring.puts": "count",
    "ring.put_ms.p50": "ms",
    "ring.put_ms.p99": "ms",
    "ring.get_s": "s",
    "ring.gets": "count",
    "ring.get_ms.p50": "ms",
    "ring.get_ms.p99": "ms",
    "switch.process_s": "s",
    "switch.process_calls": "count",
    "switch.batch_s": "s",
    "switch.batches": "count",
    "switch.batch_ms.p50": "ms",
    "switch.batch_ms.p99": "ms",
    "switch.lanes_per_batch": "count",
    "switch.emit_frac": "fraction",
    "switch.kill_frac": "fraction",
    "exec.process_s": "s",
    "exec.soa_s": "s",
    "exec.switch_overhead_s": "s",
    "vector.columnwise_frac": "fraction",
    "vector.fallback_batches": "count",
    "tables.indexed_frac": "fraction",
    "faults.trips": "count",
    "obs.snapshot_s": "s",
    "rss_mb.parent": "MB",
    "rss_mb.worker": "MB",
    "cpu_s.parent": "s",
    "cpu_s.workers": "s",
    "trace.unattributed_frac.parent": "fraction",
    "trace.unattributed_frac.worker_max": "fraction",
    "trace.overhead_frac": "fraction",
}


class RunError(Exception):
    """The benchmark cannot run here; nothing is reported."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Benchmark-owned caches, always on whatever the caller's settings:
    # runs never rewrite the tracked bytecode under src/, and a stale
    # per-user codegen cache cannot leak in.
    env["PYTHONPYCACHEPREFIX"] = os.path.join(STATE, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["REPRO_CODEGEN_CACHE_DIR"] = os.path.join(STATE, "codegen")
    env.pop("REPRO_CODEGEN_CACHE", None)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def spawn(argv, timeout: float = CHILD_TIMEOUT_S) -> dict:
    """Run one cold process to completion: exit code, wall clock from
    spawn to exit, CPU and peak RSS of its whole reaped tree, output."""
    out_path = os.path.join(STATE, "child.out")
    err_path = os.path.join(STATE, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, process_group=0,
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: stop the child before leaving
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left behind
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "rc": proc.returncode,
        "start": start,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr,
    }


def workload_cpus(workload: str) -> list:
    """The CPUs a workload's processes run on: one for an in-process
    workload, so the speed probe times the CPU it runs on, all of them
    for the sharded soak."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[-1:] if WORKLOADS[workload]["workers"] == 0 else cpus


class SpeedProbe:
    """``probe.py`` running beside the workload processes on their CPUs
    for as long as the ``with`` block lasts."""

    def __init__(self, cpus):
        self.path = os.path.join(STATE, "probe.txt")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"),
             "--cpus", ",".join(map(str, cpus)),
             "--interval", str(PROBE_INTERVAL_S), "--out", self.path],
            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )

    def __enter__(self):
        deadline = time.monotonic() + 30
        while not (os.path.exists(self.path) and self.kernels()):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.__exit__()
                raise RunError("the speed probe did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def kernels(self):
        """``(end time, CPU seconds)`` of every kernel run so far."""
        with open(self.path) as fh:
            rows = [line.split() for line in fh]
        return [(float(r[0]), float(r[2])) for r in rows if len(r) == 3]


def speed_factor(kernels, windows) -> float:
    """Reference seconds per measured second over the ``(start, end)``
    windows: the probe kernel's reference time over its mean time on the
    workload's CPUs in them.  Times scaled by it compare across the
    speed swings of a shared host."""
    took = [d for t, d in kernels if any(a <= t <= b for a, b in windows)]
    if len(took) < MIN_PROBE_KERNELS:
        span = sum(b - a for a, b in windows)
        raise RunError(f"speed probe ran {len(took)} kernels in {span:.2f} s "
                       f"of workload; it needs {MIN_PROBE_KERNELS}")
    return REFERENCE_S / statistics.fmean(took)


def packets_per_process(workload: str) -> int:
    """fastpath soaks one program (P4); hostile-inline the default two."""
    spec = WORKLOADS[workload]
    return spec["packets"] * (1 if workload == "fastpath-sharded" else 2)


def soak_args(workload: str, seed: int, packets: int, backend: str = "vector"):
    common = ["--exec", backend, "--packets", str(packets), "--seed", str(seed), "--json"]
    if workload == "fastpath-sharded":
        return ["soak", "--programs", "P4", "--traffic", "routable",
                "--fault-rate", "0", "--workers", "2", *common]
    return ["soak", *common]


def workload_argv(workload: str, seed: int, packets=None, traced_dir=None,
                  loops_out=None):
    """The child's command line: plain, traced (``layers.py``) or, for an
    in-process soak given ``loops_out``, with a clock on its soak loops
    (``phases.py``)."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "catalog":
        if traced_dir is not None:
            return [sys.executable, os.path.join(HERE, "layers.py"),
                    "--out", traced_dir, "--catalog"]
        return [sys.executable, os.path.join(HERE, "catalog.py")]
    args = soak_args(workload, seed, packets or spec["packets"])
    if traced_dir is not None:
        return [sys.executable, os.path.join(HERE, "layers.py"),
                "--out", traced_dir, "--", *args]
    if loops_out is not None and spec["workers"] == 0:
        return [sys.executable, os.path.join(HERE, "phases.py"),
                "--out", loops_out, "--", *args]
    return [sys.executable, "-m", "repro", *args]


def soak_loops(sample: dict, path: str):
    """``(start, end)`` of each in-process soak loop of a sample, from the
    clock ``phases.py`` kept and the program's ``elapsed_s``; ``None``
    without a clock (the pool soak, compile-catalog)."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        ends = json.load(fh)
    os.remove(path)
    blocks = list((sample.get("summary") or {}).get("programs", {}).values())
    if len(ends) != len(blocks):
        return None
    return [(end - float(b["elapsed_s"]), end) for end, b in zip(ends, blocks)]


def _json_tail(text: str):
    """The child's JSON result (its whole stdout, or its last line), or
    ``None`` when there is none."""
    lines = text.strip().splitlines()
    for candidate in (text, lines[-1] if lines else ""):
        try:
            return json.loads(candidate)
        except ValueError:
            continue
    return None


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def _cached(path: str, compute) -> str:
    """Text result of ``compute()``, kept at ``path`` for later runs."""
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read()
    text = compute()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)
    return text


def reference_digest(workload: str, seed: int, packets: int, source: str) -> str:
    """The reference interpreter's digest for this run's config: pinned
    for the default seed, derived once per source tree otherwise."""
    pinned = load_expected()["digests"].get(workload, {})
    if pinned.get("seed") == seed and pinned.get("packets") == packets:
        return pinned["digest"]

    def derive() -> str:
        if workload == "fastpath-sharded":
            proc = spawn([sys.executable, os.path.join(HERE, "reference.py"),
                          "--seed", str(seed), "--packets", str(packets),
                          "--workers", str(WORKLOADS[workload]["workers"])])
            digest = proc["stdout"].strip()
        else:
            proc = spawn([sys.executable, "-m", "repro",
                          *soak_args(workload, seed, packets, backend="interp")])
            summary = _json_tail(proc["stdout"]) if proc["rc"] == 0 else None
            digest = summary["digest"] if summary and summary.get("ok") else ""
        if proc["rc"] != 0 or len(digest) != 64:
            raise RunError(
                f"reference run for {workload} seed {seed} failed "
                f"(exit {proc['rc']}): {proc['stderr'][-2000:]}"
            )
        return digest

    return _cached(os.path.join(STATE, "refs", source[:16],
                                f"{workload}-{seed}-{packets}.txt"), derive)


def equivalence_check(seed: int, source: str) -> dict:
    """micro == mono on ``CHECK_PACKETS`` seeded routable packets per
    program, as a check block (derived once per source tree and seed)."""

    def derive() -> str:
        proc = spawn([sys.executable, os.path.join(HERE, "catalog.py"), "--check",
                      "--seed", str(seed), "--packets", str(CHECK_PACKETS)],
                     timeout=WARMUP_TIMEOUT_S)
        result = _json_tail(proc["stdout"]) if proc["rc"] == 0 else None
        if not result:
            raise RunError(f"equivalence check failed to run: {proc['stderr'][-2000:]}")
        return json.dumps(result["mismatches"])

    mismatches = json.loads(_cached(os.path.join(
        STATE, "refs", source[:16], f"equivalence-{seed}-{CHECK_PACKETS}.json"), derive))
    bad = {n: m for n, m in mismatches.items() if m != 0}
    return {
        "attempted": len(mismatches),
        "failed": len(bad),
        "problems": [f"{n}: micro != mono on {m} of {CHECK_PACKETS} packets"
                     if m > 0 else f"{n}: micro or mono failed to build"
                     for n, m in sorted(bad.items())],
    }


def check_soak(proc: dict, reference: str, per_process: int) -> dict:
    """One soak process as a sample.  Failures are uncaught escapes and
    unbalanced verdicts; a bad exit, a failed ledger or a wrong digest
    fails every packet of the process."""
    summary = _json_tail(proc["stdout"]) if proc["rc"] == 0 else None
    sample = {k: proc[k] for k in ("start", "wall_s", "cpu_s", "rss_mb", "rc")}
    if not isinstance(summary, dict) or "programs" not in summary:
        sample.update(items=0, work_s=0.0, attempted=per_process,
                      failed=per_process, digest=None,
                      problems=[f"exit {proc['rc']}: {proc['stderr'][-500:]}"])
        return sample
    blocks = summary["programs"].values()
    attempted = sum(int(b["packets"]) for b in blocks)
    failed = sum(
        len([u for u in b["uncaught"] if u != "..."]) + int(b["unbalanced_verdicts"])
        for b in blocks
    )
    problems = []
    if not summary.get("ok"):
        problems.append("soak reported ok=false")
    if summary.get("digest") != reference:
        problems.append(f"digest {summary.get('digest')} != reference {reference}")
    if problems:
        failed = attempted
    sample.update(
        items=attempted,
        work_s=sum(float(b["elapsed_s"]) for b in blocks),
        attempted=attempted,
        failed=failed,
        digest=summary.get("digest"),
        problems=problems,
        summary=summary,
    )
    return sample


def check_catalog(proc: dict, expected: dict) -> dict:
    """One compile-catalog process as a sample; a program fails when it
    does not compile or its TNA resources differ from ``expected``."""
    sample = {k: proc[k] for k in ("start", "wall_s", "cpu_s", "rss_mb", "rc")}
    programs = WORKLOADS["compile-catalog"]["programs"]
    result = _json_tail(proc["stdout"]) if proc["rc"] == 0 else None
    if not isinstance(result, dict) or "programs" not in result:
        sample.update(items=0, work_s=0.0, attempted=programs, failed=programs,
                      digest=None,
                      problems=[f"exit {proc['rc']}: {proc['stderr'][-500:]}"])
        return sample
    problems = [f"{name}: {err}" for name, err in result["failed"].items()]
    for name, want in expected.items():
        got = result["programs"].get(name, {})
        have = [got.get(k) for k in ("tna_stages", "tna_phv_bits",
                                     "mono_tna_stages", "mono_tna_phv_bits")]
        if name not in result["failed"] and (
            have != want or not got.get("v1model_lines")
        ):
            problems.append(f"{name}: TNA stages/PHV {have} (expected {want}) "
                            f"or no V1Model output")
    # Stable fingerprint of the compiler's checked outputs, so traced and
    # untraced processes can be compared like soak digests.
    fingerprint = hashlib.sha256(json.dumps(
        {n: {k: v for k, v in p.items() if k != "s"}
         for n, p in sorted(result["programs"].items())},
        sort_keys=True).encode()).hexdigest()
    sample.update(
        items=len(result["programs"]) - len(result["failed"]),
        work_s=float(result["compile_s"]),
        attempted=max(programs, len(result["programs"])),
        failed=len(problems),
        digest=fingerprint,
        problems=problems,
        summary=result,
    )
    return sample


def warm_up(workload: str, seed: int, source: str) -> None:
    """One discarded process per workload and source tree fills the
    benchmark-owned bytecode and codegen caches; users pay those
    compiles once per code version, not per run."""
    marker = os.path.join(STATE, f"warm-{workload}.txt")
    if os.path.exists(marker):
        with open(marker) as fh:
            if fh.read() == source:
                return
    if WORKLOADS[workload]["kind"] == "catalog":
        argv = workload_argv(workload, seed)
    else:
        argv = workload_argv(workload, seed, packets=WARMUP_PACKETS)
    proc = spawn(argv, timeout=WARMUP_TIMEOUT_S)
    if proc["rc"] != 0:
        raise RunError(f"warm-up process failed: {proc['stderr'][-2000:]}")
    with open(marker, "w") as fh:
        fh.write(source)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _median(values):
    return statistics.median(values) if values else 0.0


def _pct(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q / 100 * len(ordered)) - 1))]


def e2e_metrics(samples) -> dict:
    per = {name: [] for name in E2E_UNITS}
    for s in samples:
        wall, work = s["wall_s"] * s["speed"], s["work_s"] * s["work_speed"]
        per["wall_s"].append(wall)
        per["setup_s"].append(wall - work)
        per["work_s"].append(work)
        per["items_per_s"].append(s["items"] / wall)
        per["run_items_per_s"].append(s["items"] / work if work else 0.0)
        per["cpu_s"].append(s["cpu_s"] * s["speed"])
        per["peak_rss_mb"].append(s["rss_mb"])
    return {name: _median(values) for name, values in per.items()}, per


def layer_metrics(sample: dict, records) -> dict:
    """Per-layer metrics of one traced process from its span records."""
    parent = [r for r in records if r["role"] == "parent"]
    workers = [r for r in records if r["role"] == "worker"]
    if len(parent) != 1:
        raise RunError(f"traced run left {len(parent)} parent records")
    parent = parent[0]
    everyone = [parent, *workers]

    def busy(name, recs=everyone):
        return sum(r["busy"].get(name, 0.0) for r in recs)

    def calls(name, recs=everyone):
        return sum(r["calls"].get(name, 0) for r in recs)

    def samples(name, recs):
        return [d * 1e3 for r in recs for d in r["samples"].get(name, [])]

    def counter(name):
        return sum(r["counters"].get(name, 0) for r in everyone)

    def frac(num, den):
        return num / den if den else 0.0

    summary = sample.get("summary") or {}
    m = {"import.busy_s": busy("import")}
    m["frontend.busy_s"] = busy("frontend")
    m["frontend.calls"] = calls("frontend")
    m["midend.link_s"] = busy("midend.link")
    m["midend.analyze_s"] = busy("midend.analyze")
    m["midend.compose_s"] = busy("midend.compose")
    m["midend.compose_mono_s"] = busy("midend.compose_mono")
    compiled = summary.get("programs", {}) if "compile_s" in summary else {}
    for i in range(1, 9):
        m[f"compile.P{i}_s"] = float(compiled.get(f"P{i}", {}).get("s", 0.0))
    m["catalog.compose_s"] = busy("catalog.compose")
    m["backend.tna_s"] = busy("backend.tna")
    m["backend.v1model_s"] = busy("backend.v1model")
    m["backends.build_s"] = busy("backends.build")
    m["backends.builds"] = calls("backends.build")
    hits = counter("codegen.build_cache_hits")
    m["codegen.cache_hit_frac"] = frac(hits, hits + counter("codegen.build_cache_misses"))
    for name in ("start", "close", "submit"):
        m[f"pool.{name}_s"] = busy(f"pool.{name}", [parent])
    dispatch = sum(busy(n, [parent]) for n in
                   ("catalog.compose", "soak.stream_gen", "engine.assign", "ring.put"))
    m["pool.collect_wait_s"] = max(0.0, m["pool.submit_s"] - dispatch) if m["pool.submit_s"] else 0.0
    m["soak.stream_gen_s"] = busy("soak.stream_gen")
    m["soak.digest_s"] = busy("soak.digest")
    m["engine.assign_s"] = busy("engine.assign")
    worker_busy = [r["covered_s"] - r["busy"].get("ring.get", 0.0) for r in workers]
    m["engine.worker_busy_s.max"] = max(worker_busy, default=0.0)
    m["engine.worker_busy_s.min"] = min(worker_busy, default=0.0)
    shards = [int(s["packets"]) for b in summary.get("programs", {}).values()
              for s in b.get("shards", ())]
    m["engine.shard_skew"] = frac(max(shards), sum(shards) / len(shards)) if shards else 0.0
    m["ring.put_s"] = busy("ring.put", [parent])
    m["ring.puts"] = calls("ring.put", [parent])
    puts = samples("ring.put", [parent])
    m["ring.put_ms.p50"], m["ring.put_ms.p99"] = _pct(puts, 50), _pct(puts, 99)
    m["ring.get_s"] = busy("ring.get", workers)
    m["ring.gets"] = calls("ring.get", workers)
    gets = samples("ring.get", workers)
    m["ring.get_ms.p50"], m["ring.get_ms.p99"] = _pct(gets, 50), _pct(gets, 99)
    m["switch.process_s"] = busy("switch.process")
    m["switch.process_calls"] = calls("switch.process")
    m["switch.batch_s"] = busy("switch.batch")
    m["switch.batches"] = calls("switch.batch")
    batches = samples("switch.batch", everyone)
    m["switch.batch_ms.p50"], m["switch.batch_ms.p99"] = _pct(batches, 50), _pct(batches, 99)
    blocks = [b for b in summary.get("programs", {}).values() if "emits" in b]
    packets = sum(int(b["packets"]) for b in blocks)
    m["switch.emit_frac"] = frac(sum(int(b["emits"]) for b in blocks), packets)
    m["switch.kill_frac"] = frac(sum(int(b["killed"]) for b in blocks), packets)
    m["exec.process_s"] = busy("exec.process")
    m["exec.soa_s"] = busy("exec.soa")
    m["exec.switch_overhead_s"] = (
        m["switch.process_s"] + m["switch.batch_s"] - m["exec.process_s"] - m["exec.soa_s"]
    )
    lanes = sum(r["lanes"] for r in everyone)
    m["switch.lanes_per_batch"] = frac(lanes, m["switch.batches"])
    m["vector.columnwise_frac"] = (
        1.0 - frac(counter("vector.split_lanes"), lanes) if lanes else 0.0
    )
    m["vector.fallback_batches"] = counter("vector.soa_fallback_batches")
    indexed = counter("interp.lookup.indexed")
    m["tables.indexed_frac"] = frac(indexed, indexed + counter("interp.lookup.scan"))
    m["faults.trips"] = sum(r["trips"] for r in everyone)
    m["obs.snapshot_s"] = busy("obs.snapshot")
    m["rss_mb.parent"] = parent["rss_mb"]
    m["rss_mb.worker"] = max((r["rss_mb"] for r in workers), default=0.0)
    m["cpu_s.parent"] = parent["cpu_s"]
    m["cpu_s.workers"] = sum(r["cpu_s"] for r in workers)
    m["trace.unattributed_frac.parent"] = 1.0 - frac(parent["covered_s"], sample["wall_s"])
    per_worker = [1.0 - frac(r["covered_s"], r["wall_s"]) for r in workers]
    m["trace.unattributed_frac.worker_max"] = max(per_worker, default=0.0)
    m["_workers"] = {str(r["pid"]): round(u, 4) for r, u in zip(workers, per_worker)}
    for name, unit in LAYER_UNITS.items():  # timings in reference seconds
        if unit in ("s", "ms"):
            m[name] *= sample["speed"]
    return m


def read_records(trace_dir: str):
    records = []
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name)) as fh:
            records.append(json.load(fh))
    return records


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _rationale(workload: str):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    for entry in spec.get("workloads", []):
        if entry.get("name") == workload:
            return entry.get("why")
    return None


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def prepare(workload: str):
    """Refuse to run where the benchmark cannot: no program source, more
    workers than cores, or another workload already running."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise RunError(f"no program source under {os.path.join(ROOT, 'src')}")
    nproc = len(os.sched_getaffinity(0))
    if WORKLOADS[workload]["workers"] > nproc:
        raise RunError(
            f"{workload} needs {WORKLOADS[workload]['workers']} worker "
            f"processes but only {nproc} cores are available"
        )
    os.makedirs(STATE, exist_ok=True)
    lock = open(os.path.join(STATE, "run.lock"), "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        lock.close()
        raise RunError("another benchmark workload is running in this checkout") from None
    return lock, nproc


def measure(workload: str, seed: int, seconds: float, trace: bool, source: str):
    spec = WORKLOADS[workload]
    expected = load_expected()
    warm_up(workload, seed, source)
    check = {"attempted": 0, "failed": 0, "problems": []}
    if spec["kind"] == "soak":
        reference = reference_digest(workload, seed, spec["packets"], source)
        per_process = packets_per_process(workload)

        def judge(proc):
            return check_soak(proc, reference, per_process)
    else:
        check = equivalence_check(seed, source)
        tna = expected["tna"]

        def judge(proc):
            return check_catalog(proc, tna)

    # The probe times the workload's CPUs while its processes run; it
    # starts after warm-up and references, which it need not see.
    cpus = workload_cpus(workload)
    os.sched_setaffinity(0, cpus)  # inherited by every workload process
    plain, traced, traced_records = [], [], []
    trace_root = os.path.join(STATE, "trace")
    loops_path = os.path.join(STATE, "loops.json")
    with SpeedProbe(cpus) as probe:
        deadline = time.perf_counter() + seconds
        while True:
            proc = spawn(workload_argv(workload, seed, loops_out=loops_path))
            if proc["rc"] == TARGET_GONE_EXIT:
                raise RunError(proc["stderr"].strip())
            plain.append(judge(proc))
            plain[-1]["loops"] = soak_loops(plain[-1], loops_path)
            if trace:
                shutil.rmtree(trace_root, ignore_errors=True)
                proc = spawn(workload_argv(workload, seed, traced_dir=trace_root))
                sample = judge(proc)
                if proc["rc"] == TARGET_GONE_EXIT:
                    raise RunError(proc["stderr"].strip())
                traced.append(sample)
                if proc["rc"] == 0:
                    traced_records.append((sample, read_records(trace_root)))
            done = len(plain)
            step = _median([s["wall_s"] for s in plain + traced]) * (2 if trace else 1)
            if done >= (MIN_PAIRS if trace else MIN_SAMPLES) and time.perf_counter() + step > deadline:
                break
        kernels = probe.kernels()
    shutil.rmtree(trace_root, ignore_errors=True)
    for s in plain + traced:
        if s["problems"]:  # a failed process may be too short to time
            s["speed"] = s["work_speed"] = speed_factor(kernels, [(0.0, math.inf)])
            continue
        s["speed"] = speed_factor(kernels, [(s["start"], s["start"] + s["wall_s"])])
        # A soak loop's time is scaled by the speed while it ran, where
        # it is on the clock; setup_s takes the rest of the process.
        loops = s.get("loops")
        s["work_speed"] = speed_factor(kernels, loops) if loops else s["speed"]
    layers = [layer_metrics(s, records) for s, records in traced_records]
    return check, plain, traced, layers


def report(workload, seed, trace, check, plain, traced, layers, provenance):
    samples = plain + traced
    attempted = check["attempted"] + sum(s["attempted"] for s in samples)
    failed = check["failed"] + sum(s["failed"] for s in samples)
    problems = list(check["problems"])
    for s in samples:
        problems.extend(s["problems"])
    if trace:
        digests = {s["digest"] for s in samples}
        if len(digests) != 1:
            problems.append(f"traced and untraced outputs differ: {sorted(map(str, digests))}")
            failed = max(failed, 1)
    correct = failed == 0 and not problems
    spec = WORKLOADS[workload]
    soak = spec["kind"] == "soak"
    lines = [f"perfbench {workload}: seed {seed}, trace {int(trace)}, "
             f"{len(plain)} untraced + {len(traced)} traced cold processes"]
    if soak:
        lines.append(f"  load: {packets_per_process(workload)} packets per process, closed loop, "
                     f"one generator (the soak parent), {spec['workers']} workers")
    else:
        lines.append(f"  load: P1-P8 compiled per process ({spec['programs']} programs)")
    speeds = [s["speed"] for s in plain]
    lines.append(f"  timings in reference seconds: measured x speed factor (median "
                 f"{_median(speeds):.4f}, range {min(speeds):.4f}-{max(speeds):.4f}) "
                 f"from the probe on CPUs {workload_cpus(workload)}; measured wall_s "
                 f"median {_median([s['wall_s'] for s in plain]):.4f}")
    e2e, per = e2e_metrics(plain)
    names = {  # what the generic metrics are on this workload
        "work_s": "run_s (sum of elapsed_s)" if soak else "compile_s",
        "items_per_s": "pkts_per_s" if soak else "programs_per_s",
        "run_items_per_s": "run_pkts_per_s" if soak else "programs_per_compile_s",
    }
    for name, unit in E2E_UNITS.items():
        q = statistics.quantiles(per[name], n=4) if len(per[name]) > 1 else [e2e[name]] * 3
        lines.append(f"  {names.get(name, name):<26} {e2e[name]:>12.4f} {unit:<4} "
                     f"median of {len(per[name])} (q1 {q[0]:.4f}, q3 {q[2]:.4f})")
    lines.append(f"  {'failed_frac':<26} {failed / max(attempted, 1):>12.4f} "
                 f"({failed}/{attempted})")
    metrics = {}
    if trace:
        for name, unit in LAYER_UNITS.items():
            values = [m[name] for m in layers if name in m]
            metrics[name] = {"value": _median(values), "unit": unit}
        walls_plain = _median([s["wall_s"] * s["speed"] for s in plain])
        walls_traced = _median([s["wall_s"] * s["speed"] for s in traced])
        metrics["trace.overhead_frac"]["value"] = (
            walls_traced / walls_plain - 1.0 if walls_plain and traced else 0.0
        )
        for m in layers:
            lines.append(f"  attribution: parent unattributed "
                         f"{m['trace.unattributed_frac.parent']:.4f}, workers "
                         f"{m['_workers'] or 'none'}")
        lines.append(f"  trace.overhead_frac {metrics['trace.overhead_frac']['value']:.4f}")
        for name, value in metrics.items():
            lines.append(f"  {name:<36} {value['value']:>14.6f} {value['unit']}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    for problem in problems[:20]:
        lines.append(f"  CHECK FAILED: {problem}")
    lines.append("provenance " + json.dumps(provenance, sort_keys=True))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        lock, nproc = prepare(args.workload)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    try:
        provenance = {
            "workload": args.workload,
            "why": _rationale(args.workload),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": _commit(),
            "source_sha256": _source_sha256(),
            "nproc": nproc,
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "loadavg_before": os.getloadavg(),
        }
        check, plain, traced, layers = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            provenance["source_sha256"],
        )
        provenance["loadavg_after"] = os.getloadavg()
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        lock.close()
    lines, result = report(args.workload, args.seed, bool(args.trace), check,
                           plain, traced, layers, provenance)
    results_dir = os.path.join(STATE, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"provenance": provenance, "result": result,
                   "samples": [{k: v for k, v in s.items() if k != "summary"}
                               for s in plain + traced]}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
