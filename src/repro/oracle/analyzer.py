"""Oracle mapping from full access information.

The paper's oracle traces *every* memory access (via simulation, as in [6])
and derives the communication matrix offline, then pins threads statically
to the best mapping.  Here the oracle can draw on two equivalent sources:

* the workload's ground-truth pattern (the generator's own definition —
  what an infinite trace would converge to), or
* an actual captured trace, analysed page by page.

Both feed the mapper SPCD itself would select for the thread count
(:func:`repro.core.mapping.select_mapper_algorithm`), so the comparison
isolates *detection quality*, exactly as in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.mapping import make_mapper, select_mapper_algorithm
from repro.machine.topology import Machine
from repro.workloads.base import Workload
from repro.workloads.trace import TraceCollector


def matrix_from_trace(trace: TraceCollector, n_threads: int) -> CommunicationMatrix:
    """Communication matrix from a full memory trace.

    For every page accessed by two or more threads, each pair of accessing
    threads communicates by the smaller of their access counts (the number
    of pairable producer/consumer events on that page).  Each page
    contributes ``np.minimum.outer`` of its nonzero count vector in one
    accumulate — no per-pair Python loop — and the per-page contributions
    are folded into the result with a single
    :meth:`~repro.core.commmatrix.CommunicationMatrix.merge`; both steps
    are exact for integer counts, so the result is bit-identical to the
    per-pair reference (pinned by ``tests/test_trace_oracle.py``).
    """
    acc = np.zeros((n_threads, n_threads), dtype=np.float64)
    for _page, counts in trace.page_access_counts(n_threads).items():
        tids = np.flatnonzero(counts)
        if tids.size < 2:
            continue
        active = counts[tids].astype(np.float64)
        acc[np.ix_(tids, tids)] += np.minimum.outer(active, active)
    np.fill_diagonal(acc, 0.0)
    return CommunicationMatrix(n_threads).merge(CommunicationMatrix(n_threads, acc))


def matrix_from_ground_truth(workload: Workload) -> CommunicationMatrix:
    """The workload's own (overall) communication pattern."""
    return workload.ground_truth()


def oracle_mapping(
    workload: Workload,
    machine: Machine,
    *,
    trace: TraceCollector | None = None,
) -> np.ndarray:
    """Static thread -> PU mapping with full knowledge of the communication.

    Uses a captured *trace* if given, otherwise the ground-truth pattern.
    """
    if trace is not None:
        matrix = matrix_from_trace(trace, workload.n_threads)
    else:
        matrix = matrix_from_ground_truth(workload)
    mapper = make_mapper(select_mapper_algorithm(workload.n_threads), machine)
    return mapper.map(matrix)
