"""Execution-driven cache hierarchy with MESI coherence.

Models the paper's evaluation machine: private per-PU L1/L2, one inclusive
shared L3 per socket, a global coherence directory producing the quantities
the paper measures — L2/L3 misses (MPKI), cache-to-cache transactions
(intra- and inter-socket) and invalidations — plus DRAM traffic split into
local and remote NUMA accesses for the energy model.
"""

from repro.cachesim.cache import SetAssocCache
from repro.cachesim.hierarchy import CoherentHierarchy
from repro.cachesim.line import MesiState
from repro.cachesim.stats import BatchCounts, CacheStats

__all__ = ["BatchCounts", "CacheStats", "CoherentHierarchy", "MesiState", "SetAssocCache"]
