"""Shard-count invariance sweeps: ``shards`` must not change a result.

A :class:`~repro.serve.session.TenantSession` touches one share table and
adds every event to one matrix, whatever its ``shards``; the count only
rounds the table size up to a multiple of itself
(:attr:`~repro.serve.session.SessionConfig.effective_table_size`).  So at a
table size that every swept count divides, a session must emit identical
matrices, digests and mapping updates for every legal shard count.

:func:`session_shard_trace` reduces one run to a canonical trace so the
sweep tests can assert plain equality across every shard count — when the
traces diverge, the differing count *is* the counterexample.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.serve.client import synthetic_fault_stream
from repro.serve.protocol import EventBatch
from repro.serve.session import SessionConfig, TenantSession

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.machine.topology import Machine

__all__ = ["session_shard_trace"]


def session_shard_trace(
    machine: "Machine",
    *,
    shards: int,
    table_size: int,
    n_threads: int = 4,
    events_per_thread: int = 2048,
    eval_every_events: int = 2048,
    seed: int = 0,
) -> "dict[str, object]":
    """Run one :class:`TenantSession` over a fixed stream; canonical trace.

    *table_size* should be divisible by every shard count under sweep
    (e.g. ``840 = lcm(1..8)``) so ``effective_table_size`` — and with it
    the slot space — is identical across counts, and any digest difference
    is the shard count's doing, not the rounding's.
    """
    config = SessionConfig(
        n_threads=n_threads,
        table_size=table_size,
        shards=shards,
        eval_every_events=eval_every_events,
    )
    session = TenantSession("sweep", config, machine)
    updates: "list[tuple[int, ...]]" = []
    for tid, now_ns, vaddrs in synthetic_fault_stream(
        n_threads, events_per_thread, seed=seed
    ):
        batch = EventBatch(tid=tid, now_ns=now_ns, vaddrs=vaddrs)
        for update in session.ingest(batch):
            updates.append(tuple(int(p) for p in update.mapping))
    return {
        "digest": session.final_digest(),
        "events": session.events_seen,
        "comm_events": session.comm_events,
        "windowed_out": session.windowed_out,
        "shared_regions": session.table.table.shared_region_count(),
        "updates": updates,
        "mapping": [int(p) for p in session.evaluator.current],
    }
