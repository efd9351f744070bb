"""Per-tenant detection state: one share table, shard matrices, evaluator.

Each session owns the full SPCD pipeline for one tenant.  Its sharing table
is one :class:`~repro.core.hashtable.ArrayShareTable` over the *logical*
slot space (``hash_64(region) % logical_size``, the slot an unsharded table
computes), so every collision, overwrite and emitted communication event is
that of a single table of the logical size.  The shards partition only the
emitted events and the matrices: an event goes to shard ``slot % n_shards``
of the slot it was detected on.

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
from repro.core.hashtable import DEFAULT_TABLE_SIZE, ArrayShareTable
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
]

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
_BOOL_FIELDS = ("filter_enabled",)


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
        if self.remap_cooldown_ns < 0:
            raise ConfigurationError("remap_cooldown_ns must be non-negative")
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

        The size of the session's logical slot space; the offline reference
        sizes its table the same way.
        """
        return -(-self.table_size // self.shards) * self.shards

    def memory_bytes(self) -> int:
        """Resident bytes of this session's detection state when its table
        is full — the figure admission control charges against the
        per-tenant memory cap.

        Per slot, a region id and a row index (8 bytes each) and, once
        every slot is occupied, a row of ``n_threads`` 8-byte timestamps;
        plus the per-shard communication matrices.  A table holds fewer
        rows until it fills, so this is the worst case.  Not counted: the
        copy made while the row store grows, which holds the previous
        store (fewer rows than the full one) beside the new one only for
        the length of the copy.
        """
        table = self.effective_table_size * 8 * (2 + self.n_threads)
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
    """One :class:`ArrayShareTable` whose events are routed to shards.

    The table covers the whole logical slot space; :meth:`touch_batch`
    touches it once per batch and hands each emitted event to shard
    ``slot % n_shards`` of the slot it was detected on.  *size* must be a
    multiple of *n_shards* (use :attr:`SessionConfig.effective_table_size`),
    so the slot space is the one the offline reference sizes its table to.
    """

    def __init__(self, size: int, n_threads: int, n_shards: int = 4) -> None:
        if n_shards <= 0:
            raise ConfigurationError("n_shards must be positive")
        if size <= 0 or size % n_shards != 0:
            raise ConfigurationError("size must be a positive multiple of n_shards")
        self.n_shards = n_shards
        self.table = ArrayShareTable(size, n_threads)

    def touch_batch(
        self, regions: np.ndarray, tid: int, now_ns: int, window_ns: int
    ) -> "tuple[list[tuple[int, np.ndarray]], int]":
        """Touch a batch of regions; returns per-shard partner vectors.

        The result is ``([(shard_id, partners), ...], windowed_out)``, one
        entry per shard that received events.  The concatenation over
        shards is a permutation of what the table emitted for the batch;
        matrix accumulation is order-insensitive.
        """
        regions = np.asarray(regions, dtype=np.int64)
        partners, windowed_out, event_slots = self.table.touch_batch_at(
            self.table.slots_of(regions), regions, tid, now_ns, window_ns
        )
        shard_ids = event_slots % self.n_shards
        order = np.argsort(shard_ids, kind="stable")
        bounds = np.cumsum(np.bincount(shard_ids, minlength=self.n_shards))[:-1]
        per_shard = np.split(partners[order], bounds)
        return [(k, p) for k, p in enumerate(per_shard) if p.size], windowed_out


class TenantSession:
    """One tenant's full pipeline: share table, shard matrices, evaluator.

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

        Detection first (one table touch + per-shard matrix scatter), then as
        many evaluation ticks as the event-count cadence owes — the same
        order :func:`~repro.serve.evaluator.offline_reference` replays.
        """
        cfg = self.config
        if not 0 <= batch.tid < cfg.n_threads:
            raise ProtocolError(
                f"thread id {batch.tid} outside the session's {cfg.n_threads} threads"
            )
        n = batch.n_events
        if n:
            # A negative address gives a negative region id, and region -1
            # is the table's empty-slot sentinel.
            if int(batch.vaddrs.min()) < 0:
                raise ProtocolError("negative address in an EVENTS batch")
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
            "shared_regions": self.table.table.shared_region_count(),
            "collisions": self.table.table.collisions,
            "inserts": self.table.table.inserts,
            "matrix_digest": self.final_digest(),
            "mapping": [int(p) for p in self.evaluator.current],
        }
