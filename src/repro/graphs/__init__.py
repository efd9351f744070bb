"""Irregular graph workloads, sparse matrices and scalable mapping.

The paper evaluates on regular, blocky NAS patterns at 32 threads.  This
subsystem grows the reproduction toward the ROADMAP's irregular regime:

* :mod:`repro.graphs.graph` — a CSR graph/sparse-matrix description layer
  with synthetic R-MAT and Chung-Lu power-law generators plus Matrix-Market
  ingestion, and the row-partition helpers that turn a graph into a
  thread-level communication structure;
* :mod:`repro.graphs.workloads` — graph-driven :class:`~repro.workloads.base.Workload`
  implementations: :class:`~repro.graphs.workloads.SpmvHaloWorkload`
  (row-partitioned SpMV whose halo-exchange page sharing follows the
  matrix's off-diagonal structure) and
  :class:`~repro.graphs.workloads.PartitionPageRankWorkload`
  (partition-centric gather/scatter phases);
* :mod:`repro.graphs.sparse` — :class:`~repro.graphs.sparse.SparseCommMatrix`,
  a dict-of-rows sparse backend behind the
  :class:`~repro.core.commmatrix.CommunicationMatrix` interface,
  bit-identical to the dense backend on add/merge/decay/digest/CSV
  (``REPRO_SPARSE_COMM`` selects it for detection);
* :mod:`repro.graphs.hiermap` — :class:`~repro.graphs.hiermap.ScalableHierarchicalMapper`,
  Schulz/Woydt-style shared-memory hierarchical process mapping by
  recursive bisection + local search over the machine's topology tree,
  registered beside the Edmonds blossom engine
  (:func:`repro.core.mapping.select_mapper_algorithm` auto-selects it at
  scale).
"""

from repro.graphs.graph import (
    CsrGraph,
    load_matrix_market,
    partition_comm_matrix,
    partition_rows,
    powerlaw_graph,
    rmat_graph,
    save_matrix_market,
)
from repro.graphs.hiermap import ScalableHierarchicalMapper
from repro.graphs.sparse import SparseCommMatrix, make_comm_matrix
from repro.graphs.workloads import (
    PartitionPageRankWorkload,
    SpmvHaloWorkload,
    make_pagerank,
    make_spmv,
)

__all__ = [
    "CsrGraph",
    "PartitionPageRankWorkload",
    "ScalableHierarchicalMapper",
    "SparseCommMatrix",
    "SpmvHaloWorkload",
    "load_matrix_market",
    "make_comm_matrix",
    "make_pagerank",
    "make_spmv",
    "partition_comm_matrix",
    "partition_rows",
    "powerlaw_graph",
    "rmat_graph",
    "save_matrix_market",
]
