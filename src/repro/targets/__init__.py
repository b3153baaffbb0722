"""Behavioral target: executes compiled pipelines over byte packets.

This subpackage is the reproduction's stand-in for BMv2's
``simple_switch`` (V1Model) and for a Tofino device: it interprets the
composed IR produced by the midend/backends directly.

* :mod:`~repro.targets.tables` — match-action table runtime (exact,
  lpm, ternary, range) with const and runtime-installed entries.
* :mod:`~repro.targets.interpreter` — expression/statement evaluator.
* :mod:`~repro.targets.pipeline` — packet-in/packet-out execution of a
  :class:`~repro.midend.inline.ComposedPipeline`.
* :mod:`~repro.targets.codegen` — the source-codegen execution
  backend: same semantics, one generated Python function per pipeline.
* :mod:`~repro.targets.vector` — the codegen backend with columnwise
  numpy batch execution.
* :mod:`~repro.targets.backends` — the ``ExecBackend`` seam mapping
  backend names (``interp`` / ``codegen`` / ``vector``) to executors.
* :mod:`~repro.targets.switch` — a V1Model-style switch: ports, packet
  replication engine (multicast groups), recirculation.
* :mod:`~repro.targets.runtime_api` — the "control API" of the paper's
  Fig. 4: table entry installation and multicast group programming.
* :mod:`~repro.targets.faults` — fault containment (per-packet
  :class:`Verdict`, :class:`ResourceGuards`) and the deterministic
  :class:`FaultPlan` injector.
* :mod:`~repro.targets.soak` — the soak/fuzz harness behind
  ``python -m repro soak``.
* :mod:`~repro.targets.engine` — the sharded traffic engine: fans a
  soak stream over N worker processes, each owning a switch replica,
  with deterministic shard seeds and mergeable results.
"""

from repro.targets.tables import TableRuntime, Entry
from repro.targets.faults import (
    FaultError,
    FaultPlan,
    ResourceGuards,
    Verdict,
)
from repro.targets.pipeline import PipelineInstance, PacketOut
from repro.targets.backends import EXEC_BACKENDS, make_pipeline
from repro.targets.switch import Switch
from repro.targets.runtime_api import RuntimeAPI
from repro.targets.orchestration import OrchestrationRunner
from repro.targets.engine import (
    EngineConfig,
    EngineError,
    assign_shard,
    run_sharded_program,
    shard_seed,
)

__all__ = [
    "EngineConfig",
    "EngineError",
    "assign_shard",
    "run_sharded_program",
    "shard_seed",
    "TableRuntime",
    "Entry",
    "FaultError",
    "FaultPlan",
    "ResourceGuards",
    "Verdict",
    "PipelineInstance",
    "EXEC_BACKENDS",
    "make_pipeline",
    "PacketOut",
    "Switch",
    "RuntimeAPI",
    "OrchestrationRunner",
]
