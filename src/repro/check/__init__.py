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
* :class:`~repro.engine.checkpoint.GridManifest` crash-resume vs
  :func:`manifest_prefix_model` — the documented durability contract
  evaluated over every byte-truncation of the file;
* shard-count invariance (:class:`~repro.serve.session.ShardedShareTable`)
  via :func:`session_shard_trace` digest sweeps, and TLB-shootdown ×
  fault-injection interleavings via :func:`check_tlb_fault_interleavings`;
* page-table replica coherence
  (:class:`~repro.mem.ptreplica.ReplicatedPageTable`) under interleaved
  fault / migration / injection streams via
  :func:`check_replica_interleavings` — same enumerate-the-real-stack
  pattern, with ``broadcast_present=False`` and ``migrate_noshoot`` as
  the seeded-bug negative controls.

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
from repro.check.replica import (
    ReplicaModel,
    check_replica_interleavings,
    replica_alphabet,
)
from repro.check.sweeps import session_shard_trace
from repro.check.truncate import (
    manifest_prefix_model,
    truncation_sweep,
    with_duplicate_header,
    with_midfile_header,
)

__all__ = [
    "Counterexample",
    "ReplicaModel",
    "ServeModel",
    "check_replica_interleavings",
    "check_tlb_fault_interleavings",
    "interleavings",
    "manifest_prefix_model",
    "op_sequences",
    "replica_alphabet",
    "session_shard_trace",
    "truncation_sweep",
    "with_duplicate_header",
    "with_midfile_header",
]
