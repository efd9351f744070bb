"""NUMA model: per-node DRAM with local/remote access latencies.

On the paper's machine each socket is one NUMA node; a memory access that
misses the whole cache hierarchy is served by the node holding the physical
frame.  Remote accesses pay the off-chip link in addition to DRAM latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.machine.interconnect import InterconnectModel
from repro.machine.topology import CommDistance, Machine
from repro.units import CACHE_LINE_SIZE


@dataclass(frozen=True)
class NumaNode:
    """One NUMA node (socket-attached DRAM)."""

    node_id: int
    capacity: int

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigurationError("NUMA node capacity must be positive")


class NumaModel:
    """Latency/energy view of the machine's DRAM.

    Attributes:
        dram_latency_ns: row access latency of local DRAM.
        dram_energy_pj_per_access: DRAM dynamic energy per line access.
        dram_background_w_per_node: standby/refresh power per node
            (drives the time-proportional part of DRAM energy).
    """

    def __init__(
        self,
        machine: Machine,
        interconnect: InterconnectModel | None = None,
        *,
        dram_latency_ns: float = 60.0,
        dram_energy_pj_per_access: float = 2000.0,
        dram_background_w_per_node: float = 2.0,
    ) -> None:
        self.machine = machine
        self.interconnect = interconnect or InterconnectModel()
        self.dram_latency_ns = dram_latency_ns
        self.dram_energy_pj_per_access = dram_energy_pj_per_access
        self.dram_background_w_per_node = dram_background_w_per_node
        self.nodes = tuple(
            NumaNode(node_id=i, capacity=machine.memory_per_node)
            for i in range(machine.n_numa_nodes)
        )

    def n_nodes(self) -> int:
        """Number of NUMA nodes."""
        return len(self.nodes)

    def access_latency_ns(self, pu_id: int, home_node: int) -> float:
        """Latency for a DRAM access from *pu_id* to memory on *home_node*."""
        local = self.machine.numa_node_of(pu_id) == home_node
        if local:
            return self.dram_latency_ns + self.interconnect.transfer_ns(
                CommDistance.SAME_SOCKET
            )
        return self.dram_latency_ns + self.interconnect.transfer_ns(
            CommDistance.CROSS_SOCKET
        )

    def access_energy_pj(self, pu_id: int, home_node: int) -> float:
        """DRAM + interconnect energy for one line access."""
        local = self.machine.numa_node_of(pu_id) == home_node
        distance = CommDistance.SAME_SOCKET if local else CommDistance.CROSS_SOCKET
        return self.dram_energy_pj_per_access + self.interconnect.transfer_pj(
            distance, CACHE_LINE_SIZE
        )

    def is_local(self, pu_id: int, home_node: int) -> bool:
        """True if *home_node* is the node of the PU's socket."""
        return self.machine.numa_node_of(pu_id) == home_node
