"""Lightweight wall-clock counters for the simulator's subsystems.

These measure the *host* cost of a run (not simulated time): how long the
MESI hierarchy, the fault pipeline, the SPCD/kernel-thread machinery and
the access-stream generators took, so the engine's performance trajectory
is observable in-repo (``bench_kernels.py`` snapshots them, and every
:class:`~repro.engine.simulator.SimulationResult` carries one).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class PerfCounters:
    """Host-side wall-clock breakdown of one simulation run (seconds)."""

    #: total wall-clock of :meth:`Simulator.run`
    wall_s: float = 0.0
    #: time inside ``CoherentHierarchy.access_batch_pu``
    hierarchy_s: float = 0.0
    #: time inside the fault pipeline (classification + handling)
    fault_s: float = 0.0
    #: time inside fault hooks (SPCD detection / data-map recording); a
    #: subset of ``fault_s``, not an additional bucket
    detect_s: float = 0.0
    #: time in the timer wheel + scheduler quanta (SPCD injector/evaluator,
    #: load balancer, migrations)
    spcd_s: float = 0.0
    #: time inside the mapping kernels (grouping + matching + layout) when
    #: an SPCD evaluation decides a mapping; a subset of ``spcd_s``, not an
    #: additional bucket
    match_s: float = 0.0
    #: time generating workload access streams
    workload_s: float = 0.0
    #: memory accesses fed to the hierarchy
    accesses: int = 0
    #: page faults handled (first-touch + injected)
    faults: int = 0
    #: page-table-walk radix levels resolved on the walking PU's node
    #: (populated only under ``EngineConfig.placement_walk``; see
    #: ``PageTable.charge_walk``)
    pt_walk_levels_local: int = 0
    #: page-table-walk radix levels that crossed the socket interconnect
    pt_walk_levels_remote: int = 0

    @property
    def tracked_s(self) -> float:
        """Wall time attributed to a tracked subsystem.

        ``detect_s`` is contained in ``fault_s`` and ``match_s`` in
        ``spcd_s``, so neither is part of the sum.
        """
        return self.hierarchy_s + self.fault_s + self.spcd_s + self.workload_s

    @property
    def other_s(self) -> float:
        """Raw residual: wall time not attributed to a tracked subsystem.

        Deliberately *not* clamped at zero — the tracked timers are
        disjoint sub-intervals of ``wall_s``, so a negative residual means
        two subsystem timers overlap (double counting, as ``detect_s`` ⊂
        ``fault_s`` would if it were summed) and must surface, not be
        silently hidden.  The parity/smoke suites assert it non-negative.
        """
        return self.wall_s - self.tracked_s

    def accesses_per_s(self) -> float:
        """Hierarchy throughput (accesses per second of hierarchy time)."""
        return self.accesses / self.hierarchy_s if self.hierarchy_s > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports/JSON snapshots."""
        return {f.name: getattr(self, f.name) for f in fields(PerfCounters)}
