"""repro — reproduction of "Communication-Based Mapping Using Shared Pages".

SPCD (Shared Pages Communication Detection) detects the communication
pattern of shared-memory parallel applications by monitoring page faults on
shared pages, and dynamically migrates threads so that heavily communicating
threads share caches (Diener, Cruz, Navaux; IPDPS workshops 2013).

The paper's kernel mechanism cannot run in user-space Python, so this
package pairs a faithful implementation of the SPCD algorithms
(:mod:`repro.core`) with a full simulation substrate: machine/cache/NUMA
models (:mod:`repro.machine`, :mod:`repro.cachesim`), a virtual-memory
subsystem with a hookable fault pipeline (:mod:`repro.mem`), an OS layer
(:mod:`repro.kernelsim`), synthetic NPB-like workloads
(:mod:`repro.workloads`) and an execution-driven engine producing the
paper's metrics (:mod:`repro.engine`).

Quick start::

    from repro import Simulator, make_npb
    result = Simulator(make_npb("SP"), "spcd", seed=1).run()
    print(result.exec_time_s, result.l3_mpki)

Placement policies (:mod:`repro.placement`) name how threads start and
whether SPCD remaps them — pass ``"os"``, ``"random"``, ``"oracle"``,
``"spcd"`` or ``"spcd-hier"`` (or a :class:`PlacementPolicy` record)
wherever a policy name is accepted.

Experiment grids (cached, parallel, resumable from the cache)::

    from repro import run_grid
    grid = run_grid(["CG", "SP"], cache="results/", workers=4)
    print(grid.cell("CG", "spcd").mean("exec_time_s"), grid.failures)
"""

from repro.core import (
    CommunicationFilter,
    CommunicationMatrix,
    HierarchicalMapper,
    SpcdConfig,
    SpcdDetector,
    SpcdManager,
    make_mapper,
    max_weight_perfect_matching,
)
from repro.graphs import (
    CsrGraph,
    PartitionPageRankWorkload,
    ScalableHierarchicalMapper,
    SpmvHaloWorkload,
    make_pagerank,
    make_spmv,
)
from repro.engine import (
    CellFailure,
    EngineConfig,
    GridResult,
    ResultCache,
    RunSettings,
    SimulationResult,
    Simulator,
    run_grid,
)
from repro.machine import Machine, build_machine, dual_xeon_e5_2650
from repro.obs import JsonlRecorder, TraceRecorder
from repro.placement import PlacementPolicy, canonical_policies, resolve_policy
from repro.workloads import ProducerConsumerWorkload, SyntheticNpbWorkload, make_npb

__version__ = "13.0.0"

__all__ = [
    "CellFailure",
    "CommunicationFilter",
    "CommunicationMatrix",
    "CsrGraph",
    "EngineConfig",
    "GridResult",
    "HierarchicalMapper",
    "JsonlRecorder",
    "Machine",
    "PartitionPageRankWorkload",
    "PlacementPolicy",
    "ProducerConsumerWorkload",
    "ResultCache",
    "RunSettings",
    "ScalableHierarchicalMapper",
    "SimulationResult",
    "Simulator",
    "SpcdConfig",
    "SpcdDetector",
    "SpcdManager",
    "SpmvHaloWorkload",
    "SyntheticNpbWorkload",
    "TraceRecorder",
    "build_machine",
    "canonical_policies",
    "dual_xeon_e5_2650",
    "make_mapper",
    "make_npb",
    "make_pagerank",
    "make_spmv",
    "max_weight_perfect_matching",
    "resolve_policy",
    "run_grid",
    "__version__",
]
