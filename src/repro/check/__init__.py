"""Exhaustive small-model checking of the concurrency-critical subsystems.

Commuter-style correctness harness (commuter model-checks a POSIX file
system the same way): every concurrency-critical state machine in the
repo is paired with a **trivially-correct Python model** and driven through
either hypothesis stateful exploration or brute-force enumeration of the
interleavings hypothesis cannot shrink well.  The subsystems under check,
and their models:

* serve admission / credit-window / drain
  (:class:`~repro.serve.server.MappingServer`) vs :class:`ServeModel` — an
  explicit transition table;
* shard-count invariance (``SessionConfig.shards`` changes no result)
  via :func:`session_shard_trace` digest sweeps, and TLB-shootdown ×
  fault-injection interleavings via :func:`check_tlb_fault_interleavings`.

The drivers live in ``tests/model/``; this package holds only the models
and enumerators so regression tests (and future subsystems) can import
them.  The pattern for adding a model is documented in DESIGN.md §13.
"""

from repro.check.interleave import (
    Counterexample,
    check_tlb_fault_interleavings,
    interleavings,
    op_sequences,
)
from repro.check.models import ServeModel
from repro.check.sweeps import session_shard_trace

__all__ = [
    "Counterexample",
    "ServeModel",
    "check_tlb_fault_interleavings",
    "interleavings",
    "op_sequences",
    "session_shard_trace",
]
