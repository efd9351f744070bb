"""Counters produced by the coherent hierarchy.

These correspond directly to the paper's measured quantities: L2/L3 MPKI
(Figs. 9-10), cache-to-cache transactions (Fig. 11) and, for the energy
model, DRAM reads/write-backs split by NUMA locality and invalidation
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple


@dataclass
class CacheStats:
    """Aggregate event counters for one simulation run."""

    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l3_hits: int = 0
    l3_misses: int = 0
    #: cache-to-cache transfers between private caches on the same socket
    c2c_intra: int = 0
    #: transfers that crossed the off-chip interconnect
    c2c_inter: int = 0
    #: invalidation messages sent on writes to shared lines
    invalidations: int = 0
    #: silent E->M upgrades (no bus traffic)
    silent_upgrades: int = 0
    dram_reads_local: int = 0
    dram_reads_remote: int = 0
    dram_writebacks: int = 0
    #: lines back-invalidated from private caches by inclusive-L3 evictions
    back_invalidations: int = 0

    def snapshot(self) -> tuple[int, ...]:
        """Value snapshot, in the dataclass's field order."""
        return (
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.l3_hits,
            self.l3_misses,
            self.c2c_intra,
            self.c2c_inter,
            self.invalidations,
            self.silent_upgrades,
            self.dram_reads_local,
            self.dram_reads_remote,
            self.dram_writebacks,
            self.back_invalidations,
        )

    @property
    def c2c_total(self) -> int:
        """All cache-to-cache transactions (paper Fig. 11 metric)."""
        return self.c2c_intra + self.c2c_inter

    @property
    def dram_reads(self) -> int:
        """Total demand reads served by DRAM."""
        return self.dram_reads_local + self.dram_reads_remote

    @property
    def dram_accesses(self) -> int:
        """All DRAM traffic (reads + write-backs)."""
        return self.dram_reads + self.dram_writebacks

    def mpki(self, level: int, instructions: int) -> float:
        """Misses per kilo-instruction at cache *level* (1, 2 or 3)."""
        misses = {1: self.l1_misses, 2: self.l2_misses, 3: self.l3_misses}[level]
        return 1000.0 * misses / instructions if instructions else 0.0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view for reports."""
        return {f.name: getattr(self, f.name) for f in fields(CacheStats)}


class BatchCounts(NamedTuple):
    """One batch's counts that the time model reads, as
    :meth:`~repro.cachesim.hierarchy.CoherentHierarchy.access_batch_pu`
    returns them: what the batch added to the :class:`CacheStats` fields of
    the same names."""

    l2_hits: int = 0
    l3_hits: int = 0
    c2c_intra: int = 0
    c2c_inter: int = 0
    dram_reads_local: int = 0
    dram_reads_remote: int = 0
