"""Typed trace events — the vocabulary of the observability subsystem.

Every decision the SPCD mechanism makes during a run maps to exactly one
event type here: fault batches feeding the detector, injector wakes with
their adaptively chosen page counts, filter evaluations with their verdict,
proposed-vs-accepted mappings, migrations, TLB shootdowns, and the run's
book-ends (:class:`RunStart` / :class:`RunEnd`, which folds the
:class:`~repro.engine.perf.PerfCounters` snapshot into the stream).

Design rules that make traces *reconstructive* rather than merely
descriptive:

* events carry **virtual time** (``now_ns``) and **cumulative** overhead
  counters (``hook_time_ns``, ``inject_time_ns``, ``mapping_ns``,
  ``migration_cost_ns``) — the last value seen for each counter is exactly
  the simulator's final attribute value, so
  :mod:`repro.obs.report` reproduces the Fig. 16 detection/mapping split
  bit-for-bit instead of re-deriving it approximately;
* wall-clock (host) measurements appear **only** in :class:`RunEnd`'s
  ``perf`` field and :class:`MappingDecision`'s ``decide_wall_s``, so two
  runs with the same seed produce byte-identical streams once those fields
  are masked (pinned by ``tests/test_obs.py``).

Events serialise to plain dicts (``to_dict``) with a ``type`` tag; all
values are JSON-native (ints, floats, bools, strings, lists).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, ClassVar

__all__ = [
    "CacheEpoch",
    "CellCompleted",
    "CellFailed",
    "FaultBatchSummary",
    "GridEnd",
    "GridStart",
    "InjectorWake",
    "MappingDecision",
    "Migration",
    "RunEnd",
    "RunStart",
    "ServeEnd",
    "ServeEvaluation",
    "ServeSessionEnd",
    "ServeSessionStart",
    "ServeStart",
    "SpcdEvaluation",
    "TlbShootdown",
    "TraceEvent",
    "event_types",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class: every event has a ``type`` tag and serialises to a dict."""

    type: ClassVar[str] = "event"

    def to_dict(self) -> dict[str, Any]:
        """JSON-native dict with the ``type`` tag first."""
        d: dict[str, Any] = {"type": self.type}
        d.update(asdict(self))
        return d


@dataclass(frozen=True)
class RunStart(TraceEvent):
    """Emitted once, before the first simulation step."""

    type: ClassVar[str] = "run_start"

    workload: str
    policy: str
    seed: int
    n_threads: int
    steps: int
    batch_size: int


@dataclass(frozen=True)
class FaultBatchSummary(TraceEvent):
    """One thread batch's resolved faults (the detector's raw input).

    ``hook_time_ns`` and ``fault_time_ns`` are the pipeline's *cumulative*
    virtual-time counters after this batch.
    """

    type: ClassVar[str] = "fault_batch"

    step: int
    now_ns: int
    thread_id: int
    pu_id: int
    first_touch: int
    injected: int
    fault_time_ns: float
    hook_time_ns: float


@dataclass(frozen=True)
class InjectorWake(TraceEvent):
    """One injector wakeup and the budget controller's decision.

    ``budget`` is what the adaptive controller wanted to clear this wake;
    ``cleared`` is what it actually cleared (bounded by the candidate set).
    ``inject_time_ns`` is cumulative.
    """

    type: ClassVar[str] = "injector_wake"

    now_ns: int
    wake: int
    budget: int
    candidates: int
    cleared: int
    cleared_total: int
    inject_time_ns: float


@dataclass(frozen=True)
class TlbShootdown(TraceEvent):
    """A bulk TLB shootdown (injector IPI after clearing present bits)."""

    type: ClassVar[str] = "tlb_shootdown"

    now_ns: int
    n_vpns: int
    entries_removed: int
    shootdowns: int


@dataclass(frozen=True)
class SpcdEvaluation(TraceEvent):
    """One periodic SPCD evaluation and the communication filter's verdict.

    ``verdict`` is one of ``insufficient-evidence``, ``cooldown``,
    ``pattern-unchanged``, ``no-communication``, ``vetoed``, ``no-move``,
    ``migrated``.  ``partners`` is the per-thread partner vector of the
    matrix at evaluation time and ``matrix_digest`` a BLAKE2 digest of the
    matrix payload, so pattern-change decisions can be audited offline.
    """

    type: ClassVar[str] = "spcd_evaluation"

    now_ns: int
    evaluation: int
    verdict: str
    fresh_events: float
    partners: list[int]
    matrix_digest: str
    mapping_ns: float


@dataclass(frozen=True)
class MappingDecision(TraceEvent):
    """A mapper invocation: the proposed mapping against the current one.

    ``accepted`` is False when the improvement gate vetoed the migration
    (``cost_new > min_improvement * cost_now``).  ``algorithm`` names the
    engine that produced the proposal (``edmonds`` or ``hierarchical``),
    ``matrix_density`` is the nonzero fraction of the decided matrix, and
    ``decide_wall_s`` is the engine's host wall-clock — the second
    wall-clock field of a trace besides :class:`RunEnd`'s ``perf``, masked
    by the same determinism test, so decision cost at scale is observable
    per decision rather than only as a run-level aggregate.  Defaults keep
    traces from older recorders readable.
    """

    type: ClassVar[str] = "mapping_decision"

    now_ns: int
    current: list[int]
    proposed: list[int]
    cost_now: float
    cost_new: float
    accepted: bool
    algorithm: str = "edmonds"
    matrix_density: float = 0.0
    decide_wall_s: float = 0.0


@dataclass(frozen=True)
class Migration(TraceEvent):
    """An applied mapping that actually moved threads (Table II event)."""

    type: ClassVar[str] = "migration"

    now_ns: int
    n_moved: int
    mapping: list[int]
    migration_events: int
    cost_ns: float


@dataclass(frozen=True)
class CacheEpoch(TraceEvent):
    """Cache-hierarchy counters at an epoch boundary (cumulative)."""

    type: ClassVar[str] = "cache_epoch"

    step: int
    now_ns: int
    stats: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class RunEnd(TraceEvent):
    """Emitted once, after the last step: totals + the PerfCounters fold.

    ``perf`` is the host wall-clock breakdown (the one non-deterministic
    field of a trace); ``perf_other_s`` is its raw, *unclamped* residual.
    """

    type: ClassVar[str] = "run_end"

    total_ns: float
    steps_run: int
    migrations: int
    os_migrations: int
    first_touch_faults: int
    injected_faults: int
    detection_ns: float
    mapping_ns: float
    detection_pct: float
    mapping_pct: float
    perf: dict[str, float] = field(default_factory=dict)
    perf_other_s: float = 0.0


# ---------------------------------------------------------------------------
# mapping-service events (the serve daemon's decision trail)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServeStart(TraceEvent):
    """Emitted once when the mapping service starts listening."""

    type: ClassVar[str] = "serve_start"

    host: str
    port: int
    machine: str
    max_sessions: int
    max_table_mb: float
    shards: int


@dataclass(frozen=True)
class ServeSessionStart(TraceEvent):
    """A tenant session was admitted (post-HELLO, pre-WELCOME)."""

    type: ClassVar[str] = "serve_session_start"

    tenant: str
    session_id: int
    n_threads: int
    table_size: int
    shards: int
    eval_every_events: int
    memory_bytes: int


@dataclass(frozen=True)
class ServeEvaluation(TraceEvent):
    """One session evaluation tick: the serve twin of :class:`SpcdEvaluation`.

    ``verdict`` uses the same vocabulary; ``matrix_digest`` is the digest of
    the session matrix the decision was computed from, which must match
    the offline replay of the same stream bit for bit.  ``mapping`` is only
    present for ``migrated`` verdicts.
    """

    type: ClassVar[str] = "serve_evaluation"

    tenant: str
    session_id: int
    evaluation: int
    events_seen: int
    comm_events: int
    verdict: str
    matrix_digest: str
    mapping: "list[int] | None" = None


@dataclass(frozen=True)
class ServeSessionEnd(TraceEvent):
    """A session finished draining; its final matrix digest is flushed here.

    ``reason`` is ``bye`` (client finished), ``disconnect`` (EOF without
    BYE), ``error`` (protocol violation) or ``drain`` (server shutdown).
    """

    type: ClassVar[str] = "serve_session_end"

    tenant: str
    session_id: int
    reason: str
    events: int
    batches: int
    comm_events: int
    windowed_out: int
    evaluations: int
    remaps: int
    matrix_digest: str
    mapping: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class ServeEnd(TraceEvent):
    """Emitted once when the service exits (after every session drained).

    ``metrics`` is the :meth:`~repro.serve.metrics.MetricsRegistry.snapshot`
    dump — the bridge that folds live service metrics into
    ``python -m repro.obs.report``.
    """

    type: ClassVar[str] = "serve_end"

    reason: str
    sessions_served: int
    sessions_refused: int
    events_total: int
    batches_total: int
    remaps_total: int
    metrics: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# grid events (the sweep's cell outcomes)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GridStart(TraceEvent):
    """Emitted once per ``run_grid`` invocation, before any cell executes."""

    type: ClassVar[str] = "grid_start"

    grid_key: str
    workloads: list[str]
    policies: list[str]
    reps: int
    cells: int
    cached: int
    to_run: int
    workers: int
    strict: bool


@dataclass(frozen=True)
class CellCompleted(TraceEvent):
    """A cell reached a result (freshly simulated, never from the cache)."""

    type: ClassVar[str] = "cell_completed"

    workload: str
    policy: str
    rep: int


@dataclass(frozen=True)
class CellFailed(TraceEvent):
    """A cell produced no result (a :class:`CellFailure` entry).

    ``kind`` is ``error`` (the cell raised) or ``crash`` (a worker process
    died before the cell finished).
    """

    type: ClassVar[str] = "cell_failed"

    workload: str
    policy: str
    rep: int
    kind: str
    message: str


@dataclass(frozen=True)
class GridEnd(TraceEvent):
    """Emitted once per ``run_grid`` invocation, after the sweep drains."""

    type: ClassVar[str] = "grid_end"

    grid_key: str
    cells: int
    cache_hits: int
    cache_misses: int
    completed: int
    failed: int
    crashes: int


def event_types() -> dict[str, type[TraceEvent]]:
    """``type`` tag -> event class, for deserialising report tooling."""
    return {
        cls.type: cls
        for cls in (
            RunStart,
            FaultBatchSummary,
            InjectorWake,
            TlbShootdown,
            SpcdEvaluation,
            MappingDecision,
            Migration,
            CacheEpoch,
            RunEnd,
            ServeStart,
            ServeSessionStart,
            ServeEvaluation,
            ServeSessionEnd,
            ServeEnd,
            GridStart,
            CellCompleted,
            CellFailed,
            GridEnd,
        )
    }
