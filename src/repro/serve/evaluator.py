"""Periodic mapping evaluation for the serving layer.

:class:`MappingEvaluator` takes serve's remap decisions through the same
code as :meth:`repro.core.manager.SpcdManager.evaluate`: the
:class:`~repro.core.decide.RemapGate` (fresh-evidence quota, remap
cooldown, communication filter, mapper, improvement veto) over a mapper
chosen by :func:`~repro.core.mapping.select_mapper_algorithm`.  The one
structural difference is the trigger: the simulator evaluates on a virtual
10 ms kernel timer, while a session evaluates every
``eval_every_events`` *ingested events* (:class:`EvalCadence`) — a tenant's
stream carries its own virtual clock, so an event-count cadence makes every
decision a pure function of the stream and therefore replayable.

:func:`offline_reference` is that replay: it pushes the same event batches
through a :class:`~repro.core.spcd.SpcdDetector` — the exact detection
engine :class:`~repro.core.manager.SpcdManager` embeds — and a fresh
evaluator at the same cadence.  A session adds every event to one matrix
with the same ``+1.0`` additions and decays it at the same points, so the
online pipeline and this offline reference produce **bit-identical matrix
digests and identical mapping decisions** at any ``matrix_decay`` (pinned
by ``tests/test_serve.py`` and asserted by the load benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.core.decide import RemapGate
from repro.core.filter import CommunicationFilter
from repro.core.manager import matrix_digest
from repro.core.mapping import make_mapper, select_mapper_algorithm
from repro.core.spcd import SpcdDetector
from repro.errors import ConfigurationError
from repro.machine.topology import Machine, dual_xeon_e5_2650
from repro.mem.fault import FaultBatch
from repro.units import PAGE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.serve.protocol import EventBatch
    from repro.serve.session import SessionConfig

__all__ = [
    "EvalCadence",
    "MappingEvaluator",
    "MappingUpdate",
    "ReplayEvaluation",
    "ReplayResult",
    "offline_reference",
]


@dataclass(frozen=True)
class MappingUpdate:
    """An accepted remap decision, as pushed to the tenant."""

    #: ordinal of the evaluation that produced this mapping (1-based)
    evaluation: int
    #: tenant events ingested when the decision was taken
    events_seen: int
    #: tenant virtual time of the newest ingested event
    now_ns: int
    #: thread -> PU assignment
    mapping: "list[int]"
    #: communication cost of the previous placement under the matrix
    cost_now: float
    #: communication cost of the new placement
    cost_new: float
    #: BLAKE2b digest of the matrix the decision was computed from
    matrix_digest: str

    def to_payload(self) -> "dict[str, object]":
        """JSON payload of the MAPPING push frame."""
        return {
            "evaluation": self.evaluation,
            "events_seen": self.events_seen,
            "now_ns": self.now_ns,
            "mapping": list(self.mapping),
            "cost_now": self.cost_now,
            "cost_new": self.cost_new,
            "matrix_digest": self.matrix_digest,
        }


class EvalCadence:
    """Event-count evaluation schedule: one tick per *every* ingested events.

    Both the live session and the offline replay advance an identical
    cadence, so evaluation points are a deterministic function of the
    batch stream alone.
    """

    def __init__(self, every: int) -> None:
        if every <= 0:
            raise ConfigurationError("eval_every_events must be positive")
        self.every = every
        self._next = every

    def due(self, events_seen: int) -> int:
        """Number of evaluation ticks due after reaching *events_seen*."""
        ticks = 0
        while events_seen >= self._next:
            self._next += self.every
            ticks += 1
        return ticks


class MappingEvaluator:
    """The remap gate bound to one tenant.

    Holds the tenant's notion of "current placement" — initially the
    identity mapping (thread *t* on PU *t*), updated on every accepted
    remap — which plays the role the pinned scheduler's placement plays in
    the simulator.
    """

    def __init__(self, machine: Machine, config: "SessionConfig") -> None:
        cfg = config
        self.machine = machine
        self.config = cfg
        if cfg.n_threads > machine.n_pus:
            raise ConfigurationError(
                f"{cfg.n_threads} threads exceed the machine's {machine.n_pus} PUs"
            )
        self.filter = CommunicationFilter(
            cfg.n_threads,
            cfg.filter_threshold,
            hysteresis=cfg.filter_hysteresis,
            margin=cfg.filter_margin,
        )
        self.mapper = make_mapper(
            select_mapper_algorithm(machine),
            machine,
            stickiness=cfg.mapper_stickiness,
        )
        self.gate = RemapGate(machine, self.mapper, self.filter, cfg)
        self.current = np.arange(cfg.n_threads, dtype=np.int64)
        self.evaluations = 0
        self.remaps = 0

    def decide(
        self,
        matrix,
        *,
        comm_events: float,
        events_seen: int,
        now_ns: int,
        digest: "str | None" = None,
        force: bool = False,
    ) -> "tuple[str, MappingUpdate | None]":
        """One evaluation; returns ``(verdict, update)``.

        The verdict vocabulary matches
        :class:`~repro.obs.events.SpcdEvaluation` (``insufficient-evidence``,
        ``cooldown``, ``pattern-unchanged``, ``no-communication``,
        ``vetoed``, ``no-move``, ``migrated``); *update* is non-``None``
        only for ``migrated``.  ``force=True`` (a FLUSH frame, or the final
        drain evaluation) bypasses the evidence quota and the cooldown but
        still runs the filter and the improvement veto.
        """
        self.evaluations += 1
        proposal = self.gate.decide(
            matrix,
            self.current,
            comm_events=comm_events,
            now_ns=now_ns,
            force=force,
        )
        if not proposal.accepted:
            return proposal.verdict, None
        mapping = proposal.mapping
        if np.array_equal(mapping, self.current):
            return "no-move", None
        self.current = mapping
        self.remaps += 1
        self.gate.record_remap(now_ns)
        return "migrated", MappingUpdate(
            evaluation=self.evaluations,
            events_seen=int(events_seen),
            now_ns=int(now_ns),
            mapping=[int(p) for p in mapping],
            cost_now=proposal.cost_now,
            cost_new=proposal.cost_new,
            matrix_digest=digest if digest is not None else matrix_digest(matrix),
        )


# ---------------------------------------------------------------------------
# offline replay reference
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReplayEvaluation:
    """One evaluation of the offline replay (audit row)."""

    events_seen: int
    verdict: str
    matrix_digest: str
    mapping: "list[int] | None"


@dataclass(frozen=True)
class ReplayResult:
    """What the offline reference pipeline produced for an event stream."""

    evaluations: "list[ReplayEvaluation]"
    final_digest: str
    final_mapping: "list[int]"
    events: int
    comm_events: int
    remaps: int


def _as_batch_tuple(batch) -> "tuple[int, int, np.ndarray]":
    if hasattr(batch, "vaddrs"):
        return int(batch.tid), int(batch.now_ns), np.asarray(batch.vaddrs, dtype=np.int64)
    tid, now_ns, vaddrs = batch
    return int(tid), int(now_ns), np.asarray(vaddrs, dtype=np.int64)


def offline_reference(
    batches: "Iterable[EventBatch | tuple[int, int, np.ndarray]]",
    config: "SessionConfig",
    machine: "Machine | None" = None,
    *,
    flush_after: "Sequence[int]" = (),
) -> ReplayResult:
    """Replay an event stream through the simulator's detector.

    Feeds every batch to a single :class:`~repro.core.spcd.SpcdDetector`
    (the engine :class:`~repro.core.manager.SpcdManager` hooks into the
    fault pipeline) sized to the session's *effective* (shard-rounded)
    table, and evaluates with a fresh :class:`MappingEvaluator` at the same
    event-count cadence the live session uses, decaying the matrix by
    ``matrix_decay`` after each evaluation as the session does.
    ``flush_after`` lists batch indices after which the live side issued a
    FLUSH, so forced evaluations replay at the same points.

    This is the acceptance reference: for any stream the service ingests,
    the digests and mappings here must equal the served ones bit for bit,
    at any ``matrix_decay``.
    """
    machine = machine or dual_xeon_e5_2650()
    cfg = config
    detector = SpcdDetector(
        cfg.n_threads,
        granularity=cfg.granularity,
        window_ns=cfg.window_ns,
        table_size=cfg.effective_table_size,
    )
    evaluator = MappingEvaluator(machine, cfg)
    cadence = EvalCadence(cfg.eval_every_events)
    flush_points = set(int(i) for i in flush_after)
    events_seen = 0
    last_now_ns = 0
    evaluations: list[ReplayEvaluation] = []

    def evaluate(force: bool) -> None:
        digest = matrix_digest(detector.matrix)
        verdict, update = evaluator.decide(
            detector.matrix,
            comm_events=detector.stats.comm_events,
            events_seen=events_seen,
            now_ns=last_now_ns,
            digest=digest,
            force=force,
        )
        evaluations.append(
            ReplayEvaluation(
                events_seen=events_seen,
                verdict=verdict,
                matrix_digest=digest,
                mapping=update.mapping if update else None,
            )
        )
        if cfg.matrix_decay < 1.0:
            detector.matrix.decay(cfg.matrix_decay)

    for index, raw in enumerate(batches):
        tid, now_ns, vaddrs = _as_batch_tuple(raw)
        n = int(vaddrs.size)
        if n:
            detector.on_fault_batch(
                FaultBatch(
                    thread_id=tid,
                    pu_id=0,
                    now_ns=now_ns,
                    vaddrs=vaddrs,
                    vpns=vaddrs >> PAGE_SHIFT,
                    is_write=np.zeros(n, dtype=bool),
                    injected=np.ones(n, dtype=bool),
                    home_nodes=np.zeros(n, dtype=np.int64),
                )
            )
            events_seen += n
            last_now_ns = max(last_now_ns, now_ns)
        for _ in range(cadence.due(events_seen)):
            evaluate(force=False)
        if index in flush_points:
            evaluate(force=True)

    return ReplayResult(
        evaluations=evaluations,
        final_digest=matrix_digest(detector.matrix),
        final_mapping=[int(p) for p in evaluator.current],
        events=events_seen,
        comm_events=int(detector.stats.comm_events),
        remaps=evaluator.remaps,
    )
