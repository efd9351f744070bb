"""Shard-count invariance: digests must be identical for every legal count.

``session_shard_trace`` runs one TenantSession per shard count over the
same stream.  The table size (840 = lcm(1..8)) divides evenly by every
swept count, so ``effective_table_size`` — and the logical slot space —
is the same everywhere and any digest difference indicts the partition.
"""

from __future__ import annotations

from repro.check import session_shard_trace

TABLE_SIZE = 840  # lcm(1..8): every swept shard count divides it


def test_session_digest_invariant_for_every_shard_count(machine):
    """ShardedShareTable: shards 1..8 all reproduce the same trace."""
    traces = {
        shards: session_shard_trace(
            machine, shards=shards, table_size=TABLE_SIZE, seed=3
        )
        for shards in range(1, 9)
    }
    reference = traces[1]
    assert reference["comm_events"] > 0  # the stream must exercise detection
    assert reference["updates"], "sweep stream produced no mapping updates"
    for shards, trace in traces.items():
        assert trace == reference, f"shards={shards} diverged from shards=1"


def test_session_digest_invariant_across_seeds(machine):
    """A second stream shape agrees too (guards against a lucky seed)."""
    for seed in (7, 11):
        base = session_shard_trace(machine, shards=1, table_size=TABLE_SIZE, seed=seed)
        for shards in (2, 5, 8):
            trace = session_shard_trace(
                machine, shards=shards, table_size=TABLE_SIZE, seed=seed
            )
            assert trace == base, f"seed={seed} shards={shards}"
