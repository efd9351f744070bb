"""SPCD communication detection (paper Sec. III).

The detector is a page-fault hook.  On every fault of the parallel
application it:

1. maps the faulting address to a *region* (address // granularity; the
   granularity defaults to the 4 KiB page size but is decoupled from it,
   Sec. III-C1);
2. looks the region up in the sharing table;
3. counts communication with every **other** thread that accessed the same
   region within the temporal window (Sec. III-C2 — accesses far apart in
   time are *temporal false communication* and are ignored);
4. records the faulting thread's time stamp in the entry.

The amount of communication between threads *i* and *j* is therefore the
number of (windowed) fault pairs on shared regions, exactly the paper's
metric.

The hook takes one :class:`~repro.mem.fault.FaultBatch` at a time over an
:class:`~repro.core.hashtable.ArrayShareTable`, the paper's fixed-size,
overwrite-on-collision table.  A batch of at most :data:`_SCALAR_DETECT_MAX`
faults takes a per-fault scalar pass; a larger one takes one vectorised
table pass and scatters the windowed communication events into the matrix
with ``np.add.at``.  Either pass leaves the matrix, the stats and the table
as replaying the batch's faults one by one, in resolution order, would:
``tests/test_spcd_parity.py`` holds the detector to that replay over the
dict-backed oracle table of ``tests/test_hashtable.py``.

The pipeline holds the detector strongly (its hook is the bound
``on_fault_batch``), so the detector holds the pipeline only through a
:func:`weakref.ref`.  A strong back-reference would close a reference
cycle, and a dropped :class:`~repro.engine.simulator.Simulator` would keep
its table, pipeline, page table and TLBs until the next full garbage
collection.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

from repro.core.commmatrix import CommunicationMatrix
from repro.core.hashtable import DEFAULT_TABLE_SIZE, ArrayShareTable
from repro.errors import ConfigurationError
from repro.mem.fault import FaultBatch, FaultPipeline
from repro.units import MSEC, PAGE_SIZE

#: fault batches at or below this size take the detector's scalar pass
#: (performance-only cutover; both passes are bit-identical — see
#: tests/test_spcd_parity.py)
_SCALAR_DETECT_MAX = 12


@dataclass
class SpcdDetectorStats:
    """Counters of the detection hook."""

    faults_seen: int = 0
    comm_events: int = 0
    windowed_out: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.faults_seen = 0
        self.comm_events = 0
        self.windowed_out = 0


class SpcdDetector:
    """The fault-hook half of SPCD.

    Attributes:
        granularity: region size in bytes used to decide sharing
            (paper default: the 4 KiB page size).
        window_ns: temporal window; a previous access older than this does
            not count as communication.  The paper gives no number; 200 ms
            keeps phase changes of the producer/consumer benchmark visible
            while suppressing cross-phase false communication.
        detect_cost_ns: virtual time charged per fault for the hash-table
            work (constant-time, Sec. III-C4) — feeds the Fig. 16 overhead
            accounting.  Must be finite and non-negative.
    """

    def __init__(
        self,
        n_threads: int,
        *,
        granularity: int = PAGE_SIZE,
        window_ns: int = 200 * MSEC,
        table_size: int = DEFAULT_TABLE_SIZE,
        detect_cost_ns: float = 250.0,
        pipeline: FaultPipeline | None = None,
    ) -> None:
        if granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        if window_ns <= 0:
            raise ConfigurationError("temporal window must be positive")
        if not (math.isfinite(detect_cost_ns) and detect_cost_ns >= 0):
            raise ConfigurationError("detect_cost_ns must be finite and non-negative")
        self.granularity = granularity
        self.window_ns = window_ns
        self.detect_cost_ns = detect_cost_ns
        self.table = ArrayShareTable(table_size, n_threads)
        self.matrix = CommunicationMatrix(n_threads)
        self.stats = SpcdDetectorStats()
        #: weak: the pipeline's hook list already holds this detector
        self._pipeline = None if pipeline is None else weakref.ref(pipeline)
        if pipeline is not None:
            pipeline.add_batch_hook(self.on_fault_batch)

    def on_fault_batch(self, batch: FaultBatch) -> None:
        """Batch hook: one vectorised table pass for a whole fault batch.

        Small batches (the steady-state common case: a thread batch faults
        on only a few pages) take a per-fault scalar pass over the same
        array table instead — cheaper than the vectorised machinery at that
        size, and bit-identical to it.
        """
        m = batch.n_faults
        if m == 0:
            return
        self.stats.faults_seen += m
        tid = batch.thread_id
        if m <= _SCALAR_DETECT_MAX:
            now = batch.now_ns
            window = self.window_ns
            g = self.granularity
            table = self.table
            matrix = self.matrix
            windowed_out = 0
            comm = 0
            for va in batch.vaddrs.tolist():
                js, wout = table.touch(va // g, tid, now, window)
                windowed_out += wout
                for j in js:
                    matrix.add(tid, j, 1.0)
                    comm += 1
            self.stats.windowed_out += windowed_out
            self.stats.comm_events += comm
        else:
            regions = batch.vaddrs // self.granularity
            partners, windowed_out = self.table.touch_batch(
                regions, tid, batch.now_ns, self.window_ns
            )
            self.stats.windowed_out += windowed_out
            if partners.size:
                self.stats.comm_events += int(partners.size)
                self.matrix.add_events(tid, partners)
        pipeline = self._pipeline and self._pipeline()
        if pipeline is not None:
            pipeline.charge_hook_time(m * self.detect_cost_ns)

    def detach(self) -> None:
        """Unregister from the fault pipeline."""
        pipeline = self._pipeline and self._pipeline()
        if pipeline is not None:
            pipeline.remove_batch_hook(self.on_fault_batch)
        self._pipeline = None

    def snapshot_matrix(self) -> CommunicationMatrix:
        """A copy of the current communication matrix."""
        return self.matrix.copy()

    def shared_region_count(self) -> int:
        """Regions currently known to be shared."""
        return self.table.shared_region_count()
