"""Per-tenant detection state: one share table, one matrix, one evaluator.

Each session owns the full SPCD pipeline for one tenant, as the paper's
detector does: every batch touches one
:class:`~repro.core.hashtable.ArrayShareTable` once, and its communication
events go to one :class:`~repro.core.commmatrix.CommunicationMatrix` in one
:meth:`~repro.core.commmatrix.CommunicationMatrix.add_events` call.  Each
cell receives the same ``+1.0`` additions, batch by batch, as the
:class:`~repro.core.spcd.SpcdDetector` that
:func:`repro.serve.evaluator.offline_reference` replays, and evaluation
decays that one matrix in place, so every digest and mapping equals the
replay's bit for bit at any ``matrix_decay``.

``shards`` partitions nothing: it only rounds the table size up to a
multiple of the shard count (:attr:`SessionConfig.effective_table_size`),
which keeps the slot space, and with it every recorded digest, that of
earlier releases.
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
    "MAX_NOW_NS",
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

#: the latest EVENTS ``now_ns`` a session accepts.  The share table stores
#: ``now_ns + 1`` in an int64, with 0 meaning "never touched", so the range
#: is ``[0, MAX_NOW_NS]``: at -1 a batch's touches would vanish, and at
#: ``2**63 - 1`` the stamp would overflow.
MAX_NOW_NS = (1 << 63) - 2


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
    ``matrix_decay`` (1.0 here: decay is opt-in) and the trigger, which is
    event-count based (``eval_every_events``) instead of timer based.
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
        plus the communication matrix.  A table holds fewer
        rows until it fills, so this is the worst case.  Not counted: the
        copy made while the row store grows, which holds the previous
        store (fewer rows than the full one) beside the new one only for
        the length of the copy.
        """
        table = self.effective_table_size * 8 * (2 + self.n_threads)
        return table + self.n_threads * self.n_threads * 8

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
    """One :class:`ArrayShareTable` whose size is a multiple of *n_shards*.

    :meth:`touch_batch` is the table's own: one touch per batch, its events
    unsplit.  *size* must be a multiple of *n_shards* (use
    :attr:`SessionConfig.effective_table_size`), the slot space the offline
    reference sizes its table to.  The class stays apart from the table
    because ``perfbench/layers.py`` traces its :meth:`touch_batch` as the
    ``serve.touch_batch`` span.
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
    ) -> "tuple[np.ndarray, int]":
        """Touch a batch of regions; ``(partners, windowed_out)`` as
        :meth:`ArrayShareTable.touch_batch` returns them."""
        return self.table.touch_batch(regions, tid, now_ns, window_ns)


class TenantSession:
    """One tenant's full pipeline: share table, matrix, evaluator.

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
        self.matrix = CommunicationMatrix(cfg.n_threads)
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

        Detection first (one table touch, one matrix update), then as many
        evaluation ticks as the event-count cadence owes — the same order
        :func:`~repro.serve.evaluator.offline_reference` replays.
        """
        cfg = self.config
        if not 0 <= batch.tid < cfg.n_threads:
            raise ProtocolError(
                f"thread id {batch.tid} outside the session's {cfg.n_threads} threads"
            )
        if not 0 <= batch.now_ns <= MAX_NOW_NS:
            raise ProtocolError(f"now_ns {batch.now_ns} outside [0, {MAX_NOW_NS}]")
        n = batch.n_events
        if n:
            # A negative address gives a negative region id, and region -1
            # is the table's empty-slot sentinel.
            if int(batch.vaddrs.min()) < 0:
                raise ProtocolError("negative address in an EVENTS batch")
            regions = batch.vaddrs // cfg.granularity
            partners, windowed = self.table.touch_batch(
                regions, batch.tid, batch.now_ns, cfg.window_ns
            )
            self.matrix.add_events(batch.tid, partners)
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

    def evaluate(self, force: bool = False) -> "MappingUpdate | None":
        """Run one evaluation over the session's matrix.

        Emits a :class:`~repro.obs.events.ServeEvaluation` trace event when
        a recorder is attached; then decays the matrix in place by
        ``matrix_decay`` (a no-op at the service default of 1.0).
        """
        cfg = self.config
        digest = matrix_digest(self.matrix)
        verdict, update = self.evaluator.decide(
            self.matrix,
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
            self.matrix.decay(cfg.matrix_decay)
        return update

    def final_digest(self) -> str:
        """Digest of the current matrix (the drain-flush digest)."""
        return matrix_digest(self.matrix)

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
