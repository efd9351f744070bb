"""Graph-driven workloads: SpMV halo exchange and partition-centric PageRank.

The NPB suite exercises SPCD with regular, blocky patterns; these workloads
feed the *irregular* regime through the identical fault/detection pipeline.
Both partition a sparse graph's vertices into contiguous row blocks, one per
thread, and derive their page sharing from the matrix's off-diagonal
structure, so a power-law graph yields a power-law, asymmetric
communication matrix:

* :class:`SpmvHaloWorkload` — node-aware row-partitioned SpMV (Bienz,
  Gropp & Olson, PAPERS.md): each thread owns a block of rows and, per
  iteration, reads the *halo* of x-vector entries owned by the partitions
  its off-diagonal nonzeros point into.  Each partition pair with
  cross-edges shares a halo region sized by its coupling strength.
* :class:`PartitionPageRankWorkload` — partition-centric gather/scatter
  PageRank (Lakhotia, Kannan & Prasanna, PAPERS.md): threads alternate
  between a *scatter* phase (streaming update bins toward neighbouring
  partitions, write-heavy) and a *gather* phase (reading the bins destined
  to them, read-heavy).  The sharing structure is the same cross-partition
  adjacency, but the read/write mix swings with the phase.

Ground truth is :func:`repro.graphs.graph.partition_comm_matrix` — what the
detector should recover — so the existing correlation/oracle machinery
applies unchanged.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.errors import WorkloadError
from repro.graphs.graph import (
    CsrGraph,
    partition_comm_matrix,
    partition_rows,
    powerlaw_graph,
    rmat_graph,
)
from repro.mem.addresspace import AddressSpace, Region
from repro.units import MSEC, PAGE_SIZE
from repro.workloads.base import SharedPairSpec, Workload

__all__ = [
    "PartitionPageRankWorkload",
    "SpmvHaloWorkload",
    "make_pagerank",
    "make_spmv",
]


class _GraphPartitionedWorkload(Workload):
    """Common machinery: row partition, pair regions, channel tables."""

    #: pages per unit of normalised coupling between two partitions
    pair_pages = 8
    #: private working set (the thread's own row block / rank vector slice)
    private_pages = 64
    shared_fraction = 0.30
    locality = 2.0

    def __init__(self, name: str, graph: CsrGraph, n_threads: int) -> None:
        super().__init__(name, n_threads)
        if graph.n < n_threads:
            raise WorkloadError(
                f"{graph.n} vertices cannot be partitioned over {n_threads} threads"
            )
        self.graph = graph
        self.parts = partition_rows(graph.n, n_threads)
        self._ground = partition_comm_matrix(graph, self.parts, n_threads)
        self._pair_specs: list[SharedPairSpec] = []

    def _setup_pairs(self, address_space: AddressSpace) -> None:
        """One shared halo region per communicating partition pair.

        Region size scales with the pair's coupling relative to the mean
        positive coupling, so SPCD's page-level sampling sees amplitudes,
        not just adjacency — the same amplification trick the NPB chains
        use.
        """
        g = self._ground
        positive = g[g > 0]
        mean_w = float(positive.mean()) if positive.size else 1.0
        n = self.n_threads
        for i in range(n):
            for j in range(i + 1, n):
                if g[i, j] > 0:
                    pages = max(1, round(self.pair_pages * g[i, j] / mean_w))
                    region = address_space.mmap(
                        f"{self.name}.halo{i}_{j}", pages * PAGE_SIZE
                    )
                    self._pair_specs.append(
                        SharedPairSpec(threads=(i, j), region=region, weight=float(g[i, j]))
                    )

    def _channels_for(
        self, tid: int
    ) -> tuple[list[Region], np.ndarray]:
        """Shared regions thread *tid* touches, with selection probabilities."""
        regions: list[Region] = []
        weights: list[float] = []
        for ps in self._pair_specs:
            if tid in ps.threads:
                regions.append(ps.region)
                weights.append(ps.weight)
        if not regions:  # isolated partition: only its private block
            return [self._private[tid]], np.array([1.0])
        w = np.asarray(weights, dtype=float)
        return regions, w / w.sum()

    def setup(self, address_space: AddressSpace) -> None:
        self._mark_setup()
        self._setup_hot(address_space)
        self._set_private(
            [
                address_space.mmap(f"{self.name}.block{t}", self.private_pages * PAGE_SIZE)
                for t in range(self.n_threads)
            ]
        )
        self._setup_pairs(address_space)
        self._set_channels([self._channels_for(t) for t in range(self.n_threads)])

    def _write_fraction_at(self, now_ns: int) -> float:
        """Fraction of accesses that are writes at virtual time *now_ns*."""
        return self.write_fraction

    def generate_step(
        self,
        tids: Sequence[int],
        n: int,
        now_ns: int,
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, np.ndarray]:
        tids = self._check_step(tids, n, rngs)
        # shared-halo + private-block addresses carry the detectable stream
        vaddrs = self._mix_hot(
            tids,
            n,
            rngs,
            lambda counts: self._mixed_cold(
                tids, counts, rngs, self.shared_fraction, self.locality
            ),
        )
        return vaddrs, self._write_flags(n, rngs, self._write_fraction_at(now_ns))

    def ground_truth(self, now_ns: int | None = None) -> CommunicationMatrix:
        return CommunicationMatrix(self.n_threads, self._ground)


class SpmvHaloWorkload(_GraphPartitionedWorkload):
    """Row-partitioned SpMV whose halo reads follow the off-diagonals.

    SpMV reads x remotely but writes only its own y block, so the shared
    stream is read-dominated.
    """

    write_fraction = 0.15
    instructions_per_access = 2.0

    def __init__(self, graph: CsrGraph, n_threads: int = 32, *, name: str = "SPMV") -> None:
        super().__init__(name, graph, n_threads)


class PartitionPageRankWorkload(_GraphPartitionedWorkload):
    """Partition-centric PageRank with alternating gather/scatter phases.

    The cross-partition structure (and hence the matrix SPCD should detect)
    is phase-invariant; what alternates is the direction of the traffic:
    scatter pushes updates out (write-heavy), gather pulls them in
    (read-heavy).  ``phase_at`` mirrors the producer/consumer benchmark's
    time convention.
    """

    instructions_per_access = 2.5
    scatter_write_fraction = 0.8
    gather_write_fraction = 0.1

    def __init__(
        self,
        graph: CsrGraph,
        n_threads: int = 32,
        *,
        phase_period_ns: int = 150 * MSEC,
        name: str = "PAGERANK",
    ) -> None:
        super().__init__(name, graph, n_threads)
        if phase_period_ns <= 0:
            raise WorkloadError("phase_period_ns must be positive")
        self.phase_period_ns = phase_period_ns

    def phase_at(self, now_ns: int) -> int:
        """0 = scatter, 1 = gather."""
        return (now_ns // self.phase_period_ns) % 2

    def _write_fraction_at(self, now_ns: int) -> float:
        return (
            self.scatter_write_fraction
            if self.phase_at(now_ns) == 0
            else self.gather_write_fraction
        )


def _build_graph(
    generator: str, n_vertices: int, avg_degree: float, seed: int
) -> CsrGraph:
    if generator == "rmat":
        return rmat_graph(n_vertices, avg_degree, seed=seed)
    if generator == "powerlaw":
        return powerlaw_graph(n_vertices, avg_degree, seed=seed)
    raise WorkloadError(f"unknown graph generator {generator!r}; have rmat, powerlaw")


def make_spmv(
    n_threads: int = 32,
    *,
    n_vertices: int | None = None,
    avg_degree: float = 8.0,
    generator: str = "rmat",
    seed: int = 0,
) -> SpmvHaloWorkload:
    """An SpMV halo-exchange workload over a synthetic sparse matrix."""
    n_vertices = n_vertices if n_vertices is not None else 32 * n_threads
    graph = _build_graph(generator, n_vertices, avg_degree, seed)
    return SpmvHaloWorkload(graph, n_threads)


def make_pagerank(
    n_threads: int = 32,
    *,
    n_vertices: int | None = None,
    avg_degree: float = 8.0,
    generator: str = "rmat",
    seed: int = 0,
    phase_period_ns: int = 150 * MSEC,
) -> PartitionPageRankWorkload:
    """A partition-centric PageRank workload over a synthetic graph."""
    n_vertices = n_vertices if n_vertices is not None else 32 * n_threads
    graph = _build_graph(generator, n_vertices, avg_degree, seed)
    return PartitionPageRankWorkload(graph, n_threads, phase_period_ns=phase_period_ns)
