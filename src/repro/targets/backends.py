"""The ``ExecBackend`` seam: one place that maps a backend name to a
pipeline executor.

Three backends execute a :class:`~repro.midend.inline.ComposedPipeline`:

* ``interp`` — :class:`~repro.targets.pipeline.PipelineInstance`, the
  reference tree-walking interpreter.  Default everywhere.
* ``codegen`` — :class:`~repro.targets.codegen.CodegenPipeline`, a
  one-time translation to generated Python source ``compile()``d into a
  single code object per pipeline, with an optional batched
  struct-of-arrays fast path (see ``DESIGN.md`` §15).
* ``vector`` — :class:`~repro.targets.vector.VectorPipeline`, the
  codegen backend with its SoA batch stage replaced by columnwise numpy
  execution with divergence splitting (see ``DESIGN.md`` §16).  Needs
  the optional ``[vector]`` extra (numpy); constructing it without
  numpy raises a reason-coded ``error[vector-unavailable]``.

All expose the same execution surface (``process``/``process_traced``,
``tables``, ``composed``, ``configure_faults``, ``guards``,
``last_drop_reason``, ``persistent``), so the switch, control API, soak
harness, and sharded engine are backend-agnostic.  Callers select a
backend by name — ``Switch(exec_backend=...)``, ``SoakConfig(exec_backend
=...)``, or the CLI ``--exec`` flag (whose ``choices`` must be exactly
``EXEC_BACKENDS``; a regression test pins that) — and this module is the
only spot that knows the names.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import TargetError
from repro.midend.inline import ComposedPipeline
from repro.targets.codegen import CodegenPipeline
from repro.targets.faults import FaultPlan, ResourceGuards
from repro.targets.pipeline import PipelineInstance

#: Recognized execution backend names, in preference-display order.
EXEC_BACKENDS = ("interp", "codegen", "vector")

DEFAULT_EXEC_BACKEND = "interp"


def make_pipeline(
    composed: ComposedPipeline,
    exec_backend: str = DEFAULT_EXEC_BACKEND,
    use_table_index: bool = True,
    guards: Optional[ResourceGuards] = None,
    faults: Optional[FaultPlan] = None,
):
    """Build a pipeline executor for ``composed`` under the named
    backend.  Unknown names raise a reason-coded :class:`TargetError`
    instead of silently falling back."""
    if exec_backend == "interp":
        return PipelineInstance(
            composed,
            use_table_index=use_table_index,
            guards=guards,
            faults=faults,
        )
    if exec_backend == "codegen":
        return CodegenPipeline(
            composed,
            use_table_index=use_table_index,
            guards=guards,
            faults=faults,
        )
    if exec_backend == "vector":
        # Imported lazily: the module is numpy-tolerant, but the other
        # backends should not pay its import on every process start.
        from repro.targets.vector import VectorPipeline

        return VectorPipeline(
            composed,
            use_table_index=use_table_index,
            guards=guards,
            faults=faults,
        )
    err = TargetError(
        f"unknown exec backend {exec_backend!r}; "
        f"known: {', '.join(EXEC_BACKENDS)}"
    )
    err.code = "unknown-backend"
    raise err


def backend_of(pipeline) -> str:
    """The backend name an executor instance was built under."""
    return getattr(pipeline, "backend", DEFAULT_EXEC_BACKEND)
