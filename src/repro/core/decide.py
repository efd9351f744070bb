"""The remap gate: one SPCD decision sequence for every caller.

The simulator's :class:`~repro.core.manager.SpcdManager` (on its periodic
virtual timer) and a serve tenant's
:class:`~repro.serve.evaluator.MappingEvaluator` (on its event-count
cadence) both decide through :class:`RemapGate`: the fresh-evidence quota,
the cooldown since the last applied remap (both skipped when the caller
forces the evaluation), the communication filter or, with the filter off,
the no-communication check, then the mapper and the improvement veto.
What a caller does with a proposal — charge virtual time and migrate
threads, or push a MAPPING frame — stays with the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.filter import CommunicationFilter
from repro.core.mapping import mapping_comm_cost
from repro.machine.topology import Machine

__all__ = ["RemapGate", "RemapProposal"]


@dataclass(frozen=True)
class RemapProposal:
    """The outcome of one pass through the gate."""

    #: ``insufficient-evidence``, ``cooldown``, ``pattern-unchanged``,
    #: ``no-communication``, ``vetoed`` or ``proposed``
    verdict: str
    #: the mapper's thread -> PU assignment; ``None`` when a gate stopped
    #: the evaluation before the mapper ran
    mapping: "np.ndarray | None" = None
    #: communication cost of the current placement and of the proposal
    cost_now: float = 0.0
    cost_new: float = 0.0
    #: host wall-clock of the mapper call
    map_wall_s: float = 0.0

    @property
    def accepted(self) -> bool:
        """True when the mapping cleared every gate, the veto included."""
        return self.verdict == "proposed"


class RemapGate:
    """The gate sequence bound to one application's filter and mapper.

    *config* is any object carrying ``filter_enabled``,
    ``filter_min_events``, ``remap_cooldown_ns`` and ``min_improvement``
    (:class:`~repro.core.manager.SpcdConfig` and
    :class:`~repro.serve.session.SessionConfig` both do).
    """

    def __init__(self, machine: Machine, mapper, comm_filter: CommunicationFilter, config) -> None:
        self.machine = machine
        self.mapper = mapper
        self.filter = comm_filter
        self.config = config
        #: communication events seen when the mapper last ran
        self.events_at_last_trigger = 0.0
        #: virtual time of the last applied remap (see :meth:`record_remap`)
        self.last_remap_ns = -(1 << 62)

    def fresh_events(self, comm_events: float) -> float:
        """Communication events observed since the mapper last ran."""
        return comm_events - self.events_at_last_trigger

    def decide(
        self,
        matrix: CommunicationMatrix,
        current: np.ndarray,
        *,
        comm_events: float,
        now_ns: int,
        force: bool = False,
    ) -> RemapProposal:
        """Run the gates and, when they pass, the mapper and the veto.

        *current* is the threads' placement now, *comm_events* the
        detector's running event count.  ``force=True`` skips the evidence
        quota and the cooldown but still runs the filter and the veto.
        """
        cfg = self.config
        if not force:
            if self.fresh_events(comm_events) < cfg.filter_min_events:
                return RemapProposal("insufficient-evidence")
            if now_ns - self.last_remap_ns < cfg.remap_cooldown_ns:
                return RemapProposal("cooldown")
        if cfg.filter_enabled and not self.filter.should_remap(matrix):
            return RemapProposal("pattern-unchanged")
        if not cfg.filter_enabled and matrix.total() == 0:
            return RemapProposal("no-communication")
        self.events_at_last_trigger = comm_events
        t_map = perf_counter()
        mapping = self.mapper.map(matrix, current=current)
        map_wall_s = perf_counter() - t_map
        cost_now = mapping_comm_cost(matrix.matrix, current, self.machine)
        cost_new = mapping_comm_cost(matrix.matrix, mapping, self.machine)
        # Vetoed: the filter's snapshot stays updated — the change was
        # considered and judged not worth a migration.  If the pattern
        # keeps evolving, partners drift against the new snapshot and
        # re-trigger naturally.
        vetoed = cost_now > 0 and cost_new > cfg.min_improvement * cost_now
        verdict = "vetoed" if vetoed else "proposed"
        return RemapProposal(verdict, mapping, float(cost_now), float(cost_new), map_wall_s)

    def record_remap(self, now_ns: int) -> None:
        """Start the cooldown: the caller applied a remap at *now_ns*."""
        self.last_remap_ns = now_ns
