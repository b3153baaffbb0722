"""Layer spans for the traced benchmark run, recorded from outside the
program.

The traced run replaces public functions of the ``repro`` package with
thin timing wrappers before the workload starts, so the program itself
is unchanged.  Each wrapper records one span per call: its duration is
added to the span's busy time, and a few spans also keep every duration
so percentiles can be taken.  Spans nest; a span that re-enters itself
(``iter_stream`` driving ``iter_stream_bytes``, or the vector backend's
fallback calling the codegen batch path) is counted once, at the
outermost call.  Time covered by top-level spans, those opened while no
other span is open, gives each process's attributed share of its wall
time.

Every process writes its own record: the traced parent at exit, and
each forked pool worker when it exits, through a
``multiprocessing.util`` finalizer registered after the fork.  A name
in :data:`TARGETS` that the program no longer defines makes
:func:`install` raise, so a renamed layer fails the run instead of
silently reading zero.

Run as a script this is the traced child the runner spawns::

    python3 perfbench/layers.py --out DIR -- soak --programs P4 ...
    python3 perfbench/layers.py --out DIR --catalog
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
perf = time.perf_counter

#: (span name, module, attribute path).  Methods are patched on their
#: class; module-level functions are also rebound in every module that
#: imported them by name.
TARGETS = (
    # Frontend: parse + type-check, via the pass manager and the
    # library loader the soak path uses.
    ("frontend", "repro.frontend.typecheck", "check_program"),
    ("frontend", "repro", "Up4Compiler.frontend"),
    # Midend passes.
    ("midend.link", "repro.midend.linker", "link_modules"),
    ("midend.analyze", "repro.midend.analysis", "Analyzer.analyze"),
    ("midend.compose", "repro.midend.inline", "compose"),
    ("midend.compose_mono", "repro.midend.inline", "compose_monolithic"),
    # Backends.
    ("backend.tna", "repro.backend.tna", "TnaBackend.compile"),
    ("backend.v1model", "repro.backend.v1model", "V1ModelBackend.compile"),
    # Soak: compile-before-run, stream generation, digest.
    ("catalog.compose", "repro.targets.soak", "compose_program"),
    ("soak.stream_gen", "repro.targets.soak", "iter_stream_bytes"),
    ("soak.stream_gen", "repro.targets.soak", "iter_stream"),
    ("soak.digest", "repro.targets.soak", "update_digest"),
    # Exec-backend build.
    ("backends.build", "repro.targets.backends", "make_pipeline"),
    # Resident pool, shard assignment, ring transport.
    ("pool.start", "repro.targets.pool", "WorkerPool.start"),
    ("pool.submit", "repro.targets.pool", "WorkerPool.submit"),
    ("pool.close", "repro.targets.pool", "WorkerPool.close"),
    ("engine.assign", "repro.targets.engine", "assign_shard"),
    ("ring.put", "repro.targets.ring", "ShardRing.put"),
    ("ring.get", "repro.targets.ring", "ShardRing.get"),
    # Switch and the execution backends under it.
    ("switch.process", "repro.targets.switch", "Switch.process"),
    ("switch.batch", "repro.targets.switch", "Switch.process_batch"),
    ("exec.process", "repro.targets.codegen", "CodegenPipeline.process"),
    ("exec.soa", "repro.targets.codegen", "CodegenPipeline.process_soa"),
    ("exec.soa", "repro.targets.vector", "VectorPipeline.process_soa"),
    # Fault injection and telemetry.
    ("faults.trip", "repro.targets.faults", "FaultPlan.trip"),
    ("obs.snapshot", "repro.obs.metrics", "MetricsRegistry.snapshot"),
)

#: Exit code of the traced child when a wrapped name is gone.
TARGET_GONE_EXIT = 97

#: Spans whose every duration is kept, for percentiles.
SAMPLED = frozenset({"ring.put", "ring.get", "switch.batch"})

#: Modules the soak workloads import lazily; the traced child imports
#: them up front so their import time is charged to the import span and
#: their names exist to be wrapped.
SOAK_MODULES = (
    "repro.cli",
    "repro.targets.soak",
    "repro.targets.engine",
    "repro.targets.pool",
    "repro.targets.vector",
)
CATALOG_MODULES = ("catalog",)


class Recorder:
    """Per-process span totals.  Reset in each forked child."""

    def __init__(self) -> None:
        self.out_dir = None
        self.reset("parent")

    def reset(self, role: str) -> None:
        self.role = role
        self.pid = os.getpid()
        self.t0 = perf()
        self.busy = {}
        self.calls = {}
        self.samples = {}
        self.trips = 0
        self.lanes = 0
        self._open = {}
        self._depth = 0
        self._top = 0.0
        self.covered = 0.0

    def enter(self, name: str):
        nested = self._open.get(name, 0)
        self._open[name] = nested + 1
        now = perf()
        if self._depth == 0:
            self._top = now
        self._depth += 1
        return None if nested else now

    def leave(self, name: str, start) -> None:
        now = perf()
        self._open[name] -= 1
        self._depth -= 1
        if start is not None:
            took = now - start
            self.busy[name] = self.busy.get(name, 0.0) + took
            self.calls[name] = self.calls.get(name, 0) + 1
            if name in SAMPLED:
                self.samples.setdefault(name, []).append(took)
        if self._depth == 0:
            self.covered += now - self._top

    def record(self) -> dict:
        """This process's spans, counters and resource use."""
        from repro.obs.metrics import METRICS, MetricsRegistry

        usage = resource.getrusage(resource.RUSAGE_SELF)
        snapshot = _original(MetricsRegistry.snapshot)(METRICS)
        return {
            "role": self.role,
            "pid": self.pid,
            "wall_s": perf() - self.t0,
            "covered_s": self.covered,
            "busy": self.busy,
            "calls": self.calls,
            "samples": self.samples,
            "trips": self.trips,
            "lanes": self.lanes,
            "counters": snapshot.get("counters", {}),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def flush(self) -> None:
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"{self.role}-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(self.record(), fh)


RECORDER = Recorder()


def _original(fn):
    return getattr(fn, "__perfbench_original__", fn)


def _wrap(fn, name: str, rec: Recorder):
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # Time each step of the generator, not the consumer's work
            # between steps.
            inner = fn(*args, **kwargs)
            while True:
                start = rec.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.leave(name, start)
                yield item

        wrapper = gen_wrapper
    elif name == "faults.trip":

        @functools.wraps(fn)
        def trip_wrapper(*args, **kwargs):
            start = rec.enter(name)
            try:
                tripped = fn(*args, **kwargs)
            finally:
                rec.leave(name, start)
            if tripped:
                rec.trips += 1
            return tripped

        wrapper = trip_wrapper
    elif name == "exec.soa":

        @functools.wraps(fn)
        def soa_wrapper(self, datas, *args, **kwargs):
            start = rec.enter(name)
            if start is not None:
                rec.lanes += len(datas)
            try:
                return fn(self, datas, *args, **kwargs)
            finally:
                rec.leave(name, start)

        wrapper = soa_wrapper
    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = rec.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.leave(name, start)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for ``module:path``; raises
    ``LookupError`` naming the target when any part is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{module_name}: {exc}") from None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{path}: {part!r} is gone")
    if attr not in vars(owner):
        raise LookupError(f"{module_name}.{path} is gone")
    return owner, attr, vars(owner)[attr]


def install(targets=TARGETS, rec: Recorder = RECORDER) -> None:
    """Wrap every target.

    Resolves all targets before patching any, so a missing name leaves
    the process untouched and raises ``LookupError`` listing them all.
    """
    resolved, missing = [], []
    for name, module_name, path in targets:
        try:
            resolved.append((name, module_name, *_resolve(module_name, path)))
        except LookupError as exc:
            missing.append(str(exc))
    if missing:
        raise LookupError("wrapped layer names are gone: " + "; ".join(missing))
    importers = [
        module
        for mod_name, module in list(sys.modules.items())
        if mod_name.startswith("repro")
        or (getattr(module, "__file__", None) or "").startswith(HERE + os.sep)
    ]
    for name, module_name, owner, attr, fn in resolved:
        wrapped = _wrap(fn, name, rec)
        setattr(owner, attr, wrapped)
        if inspect.isclass(owner):
            continue
        for module in importers:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)


def _after_fork(rec: Recorder) -> None:
    from multiprocessing import util

    rec.reset("worker")
    util.Finalize(rec, rec.flush, exitpriority=100)


def _import_timed(modules, rec: Recorder) -> None:
    start = rec.enter("import")
    try:
        for name in modules:
            importlib.import_module(name)
    finally:
        rec.leave("import", start)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 2 or argv[0] != "--out":
        print("usage: layers.py --out DIR (--catalog | -- SOAK-ARGS...)",
              file=sys.stderr)
        return 2
    out_dir, rest = argv[1], argv[2:]
    catalog = rest == ["--catalog"]
    if not catalog and (not rest or rest[0] != "--"):
        print("layers.py: expected --catalog or -- SOAK-ARGS", file=sys.stderr)
        return 2
    rec = RECORDER
    rec.out_dir = out_dir
    os.makedirs(out_dir, exist_ok=True)
    _import_timed(CATALOG_MODULES if catalog else SOAK_MODULES, rec)
    try:
        install(rec=rec)
    except LookupError as exc:
        print(f"error[trace-target]: {exc}", file=sys.stderr)
        return TARGET_GONE_EXIT
    from multiprocessing import util

    util.register_after_fork(rec, _after_fork)
    atexit.register(rec.flush)
    from repro.obs.metrics import collecting

    # Counters (codegen cache, table lookups, vector lanes) come from
    # the program's own registry; sharded workers enable theirs anyway.
    with collecting():
        if catalog:
            import catalog as catalog_mod

            print(json.dumps(catalog_mod.compile_catalog()))
            return 0
        from repro.cli import main as cli_main

        return cli_main(rest[1:])


if __name__ == "__main__":
    sys.exit(main())
