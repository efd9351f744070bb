"""Execution-time model.

Time per batch = compute time (instructions x base CPI) plus exposed memory
stall time derived from the cache-event counts of that batch.  L1 hits are
considered pipelined into the base CPI (as on real out-of-order cores);
deeper events pay their level's latency, cache-to-cache transfers pay the
interconnect, and DRAM accesses pay NUMA-dependent latency.  A memory-level-
parallelism factor exposes only part of each stall, which keeps relative
magnitudes (the paper's misses fall much faster than its execution time —
Fig. 8 vs. Figs. 9-11 — precisely because stalls overlap).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cachesim.stats import BatchCounts
from repro.machine.interconnect import InterconnectModel
from repro.machine.numa import NumaModel
from repro.machine.topology import CommDistance, Machine


@dataclass(frozen=True)
class TimeParams:
    """Tunables of the time model."""

    cpi_base: float = 0.8
    #: fraction of memory stall time actually exposed (1 - overlap by MLP)
    stall_exposure: float = 0.6


class TimeModel:
    """Computes batch durations from instruction counts and cache-event counts."""

    def __init__(
        self,
        machine: Machine,
        interconnect: InterconnectModel | None = None,
        numa: NumaModel | None = None,
        params: TimeParams | None = None,
    ) -> None:
        self.machine = machine
        self.interconnect = interconnect or InterconnectModel()
        self.numa = numa or NumaModel(machine, self.interconnect)
        self.params = params or TimeParams()
        self.cycle_ns = 1.0 / machine.frequency_ghz
        # Pre-compute per-event latencies.
        ic = self.interconnect
        self._lat_l2 = machine.l2_params.latency_ns
        self._lat_l3 = machine.l3_params.latency_ns + ic.transfer_ns(CommDistance.SAME_SOCKET)
        self._lat_c2c_intra = machine.l3_params.latency_ns + 2 * ic.transfer_ns(
            CommDistance.SAME_SOCKET
        )
        self._lat_c2c_inter = machine.l3_params.latency_ns + ic.transfer_ns(
            CommDistance.CROSS_SOCKET
        )
        self._lat_dram_local = machine.l3_params.latency_ns + self.numa.dram_latency_ns + ic.transfer_ns(
            CommDistance.SAME_SOCKET
        )
        self._lat_dram_remote = machine.l3_params.latency_ns + self.numa.dram_latency_ns + ic.transfer_ns(
            CommDistance.CROSS_SOCKET
        )

    def compute_time_ns(self, instructions: float) -> float:
        """Pure compute time of *instructions* at the base CPI."""
        return instructions * self.params.cpi_base * self.cycle_ns

    def stall_time_ns(self, counts: BatchCounts) -> float:
        """Exposed memory stall time for one batch's cache-event counts
        (as ``CoherentHierarchy.access_batch_pu`` returns them).

        Hits counted at a level already exclude deeper events (an L2 hit is
        not also an L3 hit), so the sum is not double counted.  DRAM reads
        and cache-to-cache transfers replace the plain L3-hit latency for
        those accesses.
        """
        l2_hits, l3_hits, c2c_intra, c2c_inter, dram_local, dram_remote = counts
        stall = (
            l2_hits * self._lat_l2
            + (l3_hits - c2c_intra) * self._lat_l3
            + c2c_intra * self._lat_c2c_intra
            + c2c_inter * self._lat_c2c_inter
            + dram_local * self._lat_dram_local
            + dram_remote * self._lat_dram_remote
        )
        return max(0.0, stall) * self.params.stall_exposure

    def batch_time_ns(self, instructions: float, counts: BatchCounts) -> float:
        """Total modelled time of one batch."""
        return self.compute_time_ns(instructions) + self.stall_time_ns(counts)
