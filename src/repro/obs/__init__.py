"""Structured tracing / observability for the SPCD mechanism.

The paper's evaluation hinges on *decisions* — how many migrations SPCD
performed (Table II), how its overhead splits into detection and mapping
(Fig. 16), when the communication filter judged the pattern changed — and
this package makes every such decision an observable, typed event:

* :mod:`repro.obs.events` — the event vocabulary;
* :mod:`repro.obs.recorder` — the JSONL sink (``REPRO_TRACE=<path>``) and
  the zero-cost disabled form;
* :mod:`repro.obs.report` — ``python -m repro.obs.report trace.jsonl``,
  which reconstructs the run's Table II / Fig. 16 numbers from the trace
  alone and cross-checks them against the run summary.
"""

from repro.obs.events import (
    CacheEpoch,
    FaultBatchSummary,
    InjectorWake,
    MappingDecision,
    Migration,
    RunEnd,
    RunStart,
    SpcdEvaluation,
    TlbShootdown,
    TraceEvent,
    event_types,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    JsonlRecorder,
    NullRecorder,
    TraceRecorder,
    cell_trace_path,
    run_trace_path,
)

# NOTE: repro.obs.report is intentionally NOT imported here — importing it
# from the package would shadow ``python -m repro.obs.report`` with a
# double-execution RuntimeWarning.  Import it directly where needed.

__all__ = [
    "CacheEpoch",
    "FaultBatchSummary",
    "InjectorWake",
    "JsonlRecorder",
    "MappingDecision",
    "Migration",
    "NULL_RECORDER",
    "NullRecorder",
    "RunEnd",
    "RunStart",
    "SpcdEvaluation",
    "TlbShootdown",
    "TraceEvent",
    "TraceRecorder",
    "cell_trace_path",
    "event_types",
    "run_trace_path",
]
