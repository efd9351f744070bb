"""The typed placement decision — one evaluation, one atomic verdict.

Phoenix's core observation (PAPERS.md) is that thread placement and
page/page-table placement must be decided *together* on NUMA: a thread
remap changes which node every page should live on, and a page migration
changes which placement minimises remote traffic.  The repo historically
had three independent mechanisms (thread remap via
:class:`~repro.kernelsim.migration.MigrationEngine`, page migration via
:class:`~repro.core.datamap.SpcdDataMapper`, and — since this subsystem —
Mitosis-style page-table replication); :class:`PlacementDecision` is the
single value that carries all three directives out of one policy
evaluation, so the :class:`~repro.core.manager.SpcdManager` can consume
them atomically instead of letting the mechanisms fight on separate
timers.

Everything here is frozen: a decision is a statement of intent, not a
live handle.  Mutation happens only in
:meth:`~repro.core.manager.SpcdManager.apply_decision`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.commmatrix import CommunicationMatrix
    from repro.machine.topology import Machine
    from repro.mem.pagetable import PageTable

__all__ = ["PageMigration", "PlacementDecision", "PlacementView"]


@dataclass(frozen=True)
class PageMigration:
    """One data page to move: ``vpn`` should live on ``target_node``."""

    vpn: int
    target_node: int


@dataclass(frozen=True)
class PlacementDecision:
    """What one placement evaluation decided, in full.

    Attributes:
        verdict: why the evaluation produced (or withheld) each directive —
            the vocabulary of :class:`~repro.obs.events.SpcdEvaluation`.
        thread_mapping: proposed thread→PU pinning, or ``None`` when the
            evidence gates or the improvement veto withheld a remap.
        page_migrations: data pages to migrate, decided from the per-page
            node-fault counters *in the same evaluation* as the remap.
        replicate_pt: directive to activate per-node page-table replicas
            (Mitosis); idempotent — ``False`` means "leave as-is", never
            "tear down".
        cost_now / cost_new: communication cost of the current and the
            proposed thread mapping under the detected matrix (0.0 when no
            mapping was proposed).
        shared_deferred: pages whose fault mass was split between nodes
            and were therefore *handed to the thread mapper* instead of
            being migrated — the combined policy's answer to the blind
            shared-page veto of data-only mapping.
    """

    verdict: str
    thread_mapping: "tuple[int, ...] | None" = None
    page_migrations: "tuple[PageMigration, ...]" = ()
    replicate_pt: bool = False
    cost_now: float = 0.0
    cost_new: float = 0.0
    shared_deferred: int = 0

    @property
    def is_noop(self) -> bool:
        """True when the decision carries no directive at all."""
        return (
            self.thread_mapping is None
            and not self.page_migrations
            and not self.replicate_pt
        )


@dataclass
class PlacementView:
    """Everything one policy evaluation may observe — and its two helpers.

    The view is constructed by :class:`~repro.core.manager.SpcdManager`
    per evaluation; it exposes the communication matrix *and* the
    per-page node-fault counters side by side, which is exactly what the
    combined policy needs to co-decide.  The two ``propose_*`` helpers
    are manager-bound closures so the overhead accounting (mapper calls,
    virtual mapping cost, improvement veto, trace events) stays
    bit-identical to the pre-placement engine regardless of which policy
    invokes them.
    """

    now_ns: int
    machine: "Machine"
    matrix: "CommunicationMatrix"
    fresh_events: float
    table: "PageTable"
    #: the node-fault tracker (a :class:`~repro.core.datamap.SpcdDataMapper`)
    #: or ``None`` for policies that do not map data
    node_faults: "object | None"
    #: True once per-node page-table replicas are active
    pt_replicated: bool
    _thread_proposal: "Callable[[], tuple[np.ndarray | None, str, float, float]]"
    _page_proposal: "Callable[[], tuple[tuple[PageMigration, ...], int]]"
    current_placement: "tuple[int, ...]" = field(default_factory=tuple)

    def propose_thread_mapping(self) -> "tuple[np.ndarray | None, str, float, float]":
        """Run the evidence gates + mapper; ``(mapping|None, verdict, cost_now, cost_new)``.

        Side effects (filter snapshot update, fresh-evidence bookkeeping,
        overhead accounting, the :class:`~repro.obs.events.MappingDecision`
        trace event) are identical to the pre-placement SPCD evaluation.
        """
        return self._thread_proposal()

    def propose_page_migrations(self) -> "tuple[tuple[PageMigration, ...], int]":
        """Scan the node-fault counters; ``(migrations, shared_deferred)``.

        ``shared_deferred`` counts pages left to the thread mapper because
        no node dominated their fault mass (combined policies); data-only
        policies record those as vetoed instead.
        """
        return self._page_proposal()
