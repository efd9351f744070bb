"""Per-tenant detection state: sharded sharing table + shard matrices.

Each session owns the full SPCD pipeline for one tenant, with the sharing
table split across shards so large tables stay cache-friendly and shard
work can be parallelised later without changing results.  The sharding is a
**slot-space partition**, not an independent per-shard hash: a region's
logical slot is computed exactly as the unsharded table computes it
(``hash_64(region) % logical_size``), then routed to shard
``slot % n_shards`` at local slot ``slot // n_shards``.  Because each
logical slot lives in exactly one shard and keeps its overwrite-on-
collision semantics, the set of (region, sharer, timestamp) states — and
therefore every emitted communication event — is identical to a single
:class:`~repro.core.hashtable.ArrayShareTable` of the same logical size.

Per-shard :class:`~repro.core.commmatrix.CommunicationMatrix` accumulators
take the detected events; the evaluation path reduces them with
:meth:`~repro.core.commmatrix.CommunicationMatrix.merge`.  Event counts are
added as exact float64 integers (< 2^53), so the merged matrix is
**bit-identical** to the unsharded matrix regardless of shard count or
merge order — the property the acceptance test pins against
:func:`repro.serve.evaluator.offline_reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.hashtable import DEFAULT_TABLE_SIZE, ArrayShareTable, hash_64_batch
from repro.core.manager import matrix_digest
from repro.errors import ConfigurationError, ProtocolError
from repro.machine.topology import Machine
from repro.serve.evaluator import EvalCadence, MappingEvaluator, MappingUpdate
from repro.serve.protocol import EventBatch
from repro.units import MSEC, PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.obs.recorder import JsonlRecorder

__all__ = [
    "SESSION_OVERRIDE_KEYS",
    "SessionConfig",
    "ShardedShareTable",
    "TenantSession",
    "validate_tid",
]


def validate_tid(tid: int, n_threads: int) -> None:
    """Reject a batch whose thread id falls outside the session's threads.

    Shared by :meth:`TenantSession.ingest` and the router's forwarding
    path, so a bad tid produces the identical protocol error whether the
    session runs inline or on a worker — the router rejects it *before*
    the batch enters a ring, keeping worker-side state clean.
    """
    if not 0 <= tid < n_threads:
        raise ProtocolError(
            f"thread id {tid} outside the session's {n_threads} threads"
        )

#: HELLO ``config`` keys a client may override (everything else is server
#: policy; the thread count travels in the HELLO itself)
SESSION_OVERRIDE_KEYS = frozenset(
    {
        "granularity",
        "window_ns",
        "table_size",
        "eval_every_events",
        "filter_threshold",
        "filter_enabled",
        "filter_hysteresis",
        "filter_margin",
        "filter_min_events",
        "min_improvement",
        "remap_cooldown_ns",
        "mapper_stickiness",
        "use_greedy_matching",
        "matrix_decay",
    }
)

#: SessionConfig fields holding counts, sizes or nanoseconds: ints that fit
#: the int64 arrays and arithmetic the detection path runs on
_INT_FIELDS = (
    "n_threads",
    "granularity",
    "window_ns",
    "table_size",
    "shards",
    "eval_every_events",
    "filter_threshold",
    "remap_cooldown_ns",
)
#: SessionConfig fields holding a tunable real number
_REAL_FIELDS = (
    "filter_hysteresis",
    "filter_margin",
    "filter_min_events",
    "min_improvement",
    "mapper_stickiness",
    "matrix_decay",
)
_BOOL_FIELDS = ("filter_enabled", "use_greedy_matching")


def _is_int64(value: object) -> bool:
    """An integer (not a bool) that fits in 64 bits."""
    return (
        isinstance(value, Integral)
        and not isinstance(value, bool)
        and -(1 << 63) <= value < (1 << 63)
    )


@dataclass(frozen=True)
class SessionConfig:
    """Detection/evaluation tunables of one tenant session.

    Defaults mirror :class:`repro.core.manager.SpcdConfig` except
    ``matrix_decay`` (1.0 here: exact integer matrices keep the sharded
    pipeline bit-identical to the offline reference; decay is opt-in) and
    the trigger, which is event-count based (``eval_every_events``) instead
    of timer based.
    """

    n_threads: int
    granularity: int = PAGE_SIZE
    window_ns: int = 250 * MSEC
    table_size: int = DEFAULT_TABLE_SIZE
    shards: int = 4
    eval_every_events: int = 8192
    filter_threshold: int = 2
    filter_enabled: bool = True
    filter_hysteresis: float = 1.25
    filter_margin: float = 0.5
    filter_min_events: float = 128.0
    min_improvement: float = 0.85
    remap_cooldown_ns: int = 250 * MSEC
    mapper_stickiness: float = 0.75
    use_greedy_matching: bool = False
    matrix_decay: float = 1.0

    def __post_init__(self) -> None:
        # Types first: HELLO overrides are arbitrary JSON, and a value of
        # the wrong type must be refused here, not crash the session later.
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if not _is_int64(value):
                raise ConfigurationError(f"{name} must be a 64-bit integer, not {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not (_is_int64(value) or isinstance(value, float) and math.isfinite(value)):
                raise ConfigurationError(f"{name} must be a finite number, not {value!r}")
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ConfigurationError(f"{name} must be true or false, not {value!r}")
        if self.n_threads < 2:
            raise ConfigurationError("a session needs at least 2 threads")
        if self.granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        if self.window_ns <= 0:
            raise ConfigurationError("window_ns must be positive")
        if self.table_size <= 0:
            raise ConfigurationError("table_size must be positive")
        if self.shards <= 0:
            raise ConfigurationError("shards must be positive")
        if self.eval_every_events <= 0:
            raise ConfigurationError("eval_every_events must be positive")
        # the ranges CommunicationFilter enforces
        if self.filter_threshold < 1:
            raise ConfigurationError("filter_threshold must be >= 1")
        if self.filter_hysteresis < 1.0:
            raise ConfigurationError("filter_hysteresis must be >= 1")
        if self.filter_margin < 0.0:
            raise ConfigurationError("filter_margin must be >= 0")
        if not 0.0 < self.matrix_decay <= 1.0:
            raise ConfigurationError("matrix_decay must be in (0, 1]")

    @property
    def effective_table_size(self) -> int:
        """``table_size`` rounded up to a multiple of ``shards``.

        The logical slot space must split evenly so the shard partition is
        exact; the offline reference uses this same size.
        """
        return -(-self.table_size // self.shards) * self.shards

    def memory_bytes(self) -> int:
        """Estimated resident bytes of this session's detection state.

        Slot arrays (region id + per-thread timestamps) plus the per-shard
        communication matrices — the figure admission control charges
        against the per-tenant memory cap.
        """
        table = self.effective_table_size * 8 * (1 + self.n_threads)
        matrices = self.shards * self.n_threads * self.n_threads * 8
        return table + matrices

    @classmethod
    def from_overrides(
        cls, defaults: "SessionConfig", overrides: "dict[str, object]"
    ) -> "SessionConfig":
        """Apply a HELLO config dict onto server defaults.

        Only :data:`SESSION_OVERRIDE_KEYS` are accepted; unknown keys raise
        :class:`~repro.errors.ProtocolError` so a typo in a client config
        fails loudly instead of being silently ignored.
        """
        unknown = set(overrides) - SESSION_OVERRIDE_KEYS
        if unknown:
            raise ProtocolError(f"unknown session config keys: {sorted(unknown)}")
        try:
            return replace(defaults, **overrides)  # type: ignore[arg-type]
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad session config: {exc}") from exc


class ShardedShareTable:
    """A slot-space-partitioned :class:`ArrayShareTable`.

    Exposes the same batch-touch contract as the unsharded table but routes
    every logical slot to ``shards[slot % n_shards]`` at local slot
    ``slot // n_shards``; see the module docstring for why this is an exact
    partition.  *size* must be a multiple of *n_shards* (use
    :attr:`SessionConfig.effective_table_size`).
    """

    def __init__(self, size: int, n_threads: int, n_shards: int = 4) -> None:
        if n_shards <= 0:
            raise ConfigurationError("n_shards must be positive")
        if size <= 0 or size % n_shards != 0:
            raise ConfigurationError("size must be a positive multiple of n_shards")
        self.size = size
        self.n_shards = n_shards
        self.shards = [ArrayShareTable(size // n_shards, n_threads) for _ in range(n_shards)]

    def touch_batch(
        self, regions: np.ndarray, tid: int, now_ns: int, window_ns: int
    ) -> "tuple[list[tuple[int, np.ndarray]], int]":
        """Touch a batch of regions; returns per-shard partner vectors.

        The result is ``([(shard_id, partners), ...], windowed_out)`` where
        each ``partners`` vector is what the shard's table emitted — the
        concatenation over shards is a permutation of what the unsharded
        table would emit for the same batch (partner multisets per event
        are identical; only inter-shard ordering differs, and matrix
        accumulation is order-insensitive).
        """
        regions = np.asarray(regions, dtype=np.int64)
        slots = (hash_64_batch(regions) % np.uint64(self.size)).astype(np.int64)
        shard_ids = slots % self.n_shards
        local_slots = slots // self.n_shards
        out: list[tuple[int, np.ndarray]] = []
        windowed_out = 0
        for shard_id in range(self.n_shards):
            mask = shard_ids == shard_id
            if not np.any(mask):
                continue
            partners, windowed = self.shards[shard_id].touch_batch_at(
                local_slots[mask], regions[mask], tid, now_ns, window_ns
            )
            windowed_out += windowed
            if partners.size:
                out.append((shard_id, partners))
        return out, windowed_out

    # -- aggregate counters -------------------------------------------------
    @property
    def collisions(self) -> int:
        """Overwrite events summed over shards."""
        return sum(s.collisions for s in self.shards)

    @property
    def inserts(self) -> int:
        """Fresh-slot inserts summed over shards."""
        return sum(s.inserts for s in self.shards)

    @property
    def lookups(self) -> int:
        """Touches summed over shards."""
        return sum(s.lookups for s in self.shards)

    def shared_region_count(self) -> int:
        """Live entries with >= 2 sharers, summed over shards."""
        return sum(s.shared_region_count() for s in self.shards)


class TenantSession:
    """One tenant's full pipeline: sharded table, shard matrices, evaluator.

    Synchronous and asyncio-agnostic — the server feeds it decoded
    :class:`~repro.serve.protocol.EventBatch` objects from the session's
    ingest queue; tests and the offline tooling can drive it directly.
    """

    def __init__(
        self,
        tenant: str,
        config: SessionConfig,
        machine: Machine,
        *,
        session_id: int = 0,
        recorder: "JsonlRecorder | None" = None,
    ) -> None:
        cfg = config
        self.tenant = tenant
        self.config = cfg
        self.session_id = session_id
        self.recorder = recorder
        self.table = ShardedShareTable(cfg.effective_table_size, cfg.n_threads, cfg.shards)
        self.shard_matrices = [CommunicationMatrix(cfg.n_threads) for _ in range(cfg.shards)]
        self.evaluator = MappingEvaluator(machine, cfg)
        self._cadence = EvalCadence(cfg.eval_every_events)
        self.events_seen = 0
        self.batches_seen = 0
        self.comm_events = 0
        self.windowed_out = 0
        self.last_now_ns = 0
        self.updates: list[MappingUpdate] = []

    def ingest(self, batch: EventBatch) -> "list[MappingUpdate]":
        """Feed one event batch; returns any mapping updates it triggered.

        Detection first (sharded touch + per-shard matrix scatter), then as
        many evaluation ticks as the event-count cadence owes — the same
        order :func:`~repro.serve.evaluator.offline_reference` replays.
        """
        cfg = self.config
        validate_tid(batch.tid, cfg.n_threads)
        n = batch.n_events
        if n:
            regions = batch.vaddrs // cfg.granularity
            per_shard, windowed = self.table.touch_batch(
                regions, batch.tid, batch.now_ns, cfg.window_ns
            )
            for shard_id, partners in per_shard:
                self.shard_matrices[shard_id].add_events(batch.tid, partners)
                self.comm_events += int(partners.size)
            self.windowed_out += windowed
            self.events_seen += n
            self.batches_seen += 1
            self.last_now_ns = max(self.last_now_ns, int(batch.now_ns))
        updates: list[MappingUpdate] = []
        for _ in range(self._cadence.due(self.events_seen)):
            update = self.evaluate()
            if update is not None:
                updates.append(update)
        return updates

    def merged_matrix(self) -> CommunicationMatrix:
        """Reduce the shard matrices into one (exact; order-insensitive)."""
        merged = CommunicationMatrix(self.config.n_threads)
        for shard_matrix in self.shard_matrices:
            merged.merge(shard_matrix)
        return merged

    def evaluate(self, force: bool = False) -> "MappingUpdate | None":
        """Run one evaluation over the merged matrix.

        Emits a :class:`~repro.obs.events.ServeEvaluation` trace event when
        a recorder is attached; applies ``matrix_decay`` afterwards (a
        no-op at the service default of 1.0).
        """
        cfg = self.config
        merged = self.merged_matrix()
        digest = matrix_digest(merged)
        verdict, update = self.evaluator.decide(
            merged,
            comm_events=self.comm_events,
            events_seen=self.events_seen,
            now_ns=self.last_now_ns,
            digest=digest,
            force=force,
        )
        if update is not None:
            self.updates.append(update)
        if self.recorder is not None:
            from repro.obs.events import ServeEvaluation

            self.recorder.emit(
                ServeEvaluation(
                    tenant=self.tenant,
                    session_id=self.session_id,
                    evaluation=self.evaluator.evaluations,
                    events_seen=self.events_seen,
                    comm_events=self.comm_events,
                    verdict=verdict,
                    matrix_digest=digest,
                    mapping=tuple(update.mapping) if update else None,
                )
            )
        if cfg.matrix_decay < 1.0:
            for shard_matrix in self.shard_matrices:
                shard_matrix.decay(cfg.matrix_decay)
        return update

    def final_digest(self) -> str:
        """Digest of the current merged matrix (the drain-flush digest)."""
        return matrix_digest(self.merged_matrix())

    def summary(self) -> "dict[str, object]":
        """Session summary — the SUMMARY frame payload and trace-event body."""
        return {
            "tenant": self.tenant,
            "session_id": self.session_id,
            "events": self.events_seen,
            "batches": self.batches_seen,
            "comm_events": self.comm_events,
            "windowed_out": self.windowed_out,
            "evaluations": self.evaluator.evaluations,
            "remaps": self.evaluator.remaps,
            "shared_regions": self.table.shared_region_count(),
            "collisions": self.table.collisions,
            "inserts": self.table.inserts,
            "matrix_digest": self.final_digest(),
            "mapping": [int(p) for p in self.evaluator.current],
        }
