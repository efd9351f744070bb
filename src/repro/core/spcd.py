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

Two engines implement the hook.  The default ``"array"`` engine registers a
*batch* hook: one :class:`~repro.mem.fault.FaultBatch` is processed in a
single vectorised pass over an :class:`~repro.core.hashtable.ArrayShareTable`
and the windowed communication events are scattered into the matrix with
``np.add.at``.  The ``"dict"`` engine is the original per-fault
implementation over the dict-backed
:class:`~repro.core.hashtable.ShareTable`; it is the differential-testing
reference that ``tests/test_spcd_parity.py`` and
``benchmarks/spcd_faultbench.py`` construct explicitly — both engines
produce bit-identical matrices, stats and table counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.hashtable import DEFAULT_TABLE_SIZE, ArrayShareTable, ShareTable
from repro.errors import ConfigurationError
from repro.mem.fault import FaultBatch, FaultInfo, FaultPipeline
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
            accounting.
        engine: ``"array"`` (vectorised batch engine, the default) or
            ``"dict"`` (per-fault reference engine, a test oracle).
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
        engine: str = "array",
    ) -> None:
        if granularity <= 0:
            raise ConfigurationError("granularity must be positive")
        if window_ns <= 0:
            raise ConfigurationError("temporal window must be positive")
        if engine not in ("array", "dict"):
            raise ConfigurationError("detector engine must be 'array' or 'dict'")
        self.granularity = granularity
        self.window_ns = window_ns
        self.detect_cost_ns = detect_cost_ns
        self.engine = engine
        if engine == "array":
            self.table: ArrayShareTable | ShareTable = ArrayShareTable(table_size, n_threads)
        else:
            self.table = ShareTable(table_size)
        self.matrix = CommunicationMatrix(n_threads)
        self.stats = SpcdDetectorStats()
        self._pipeline = pipeline
        if pipeline is not None:
            if engine == "array":
                pipeline.add_batch_hook(self.on_fault_batch)
            else:
                pipeline.add_hook(self.on_fault)

    def on_fault(self, info: FaultInfo) -> None:
        """Per-fault hook: update sharing table and communication matrix."""
        if self.engine == "array":
            # Route through the batch engine so both entry points observe
            # the same table (used by direct callers; the pipeline hands the
            # array engine whole batches).
            self.on_fault_batch(
                FaultBatch(
                    thread_id=info.thread_id,
                    pu_id=info.pu_id,
                    now_ns=info.now_ns,
                    vaddrs=np.array([info.vaddr], dtype=np.int64),
                    vpns=np.array([info.vpn], dtype=np.int64),
                    is_write=np.array([info.is_write], dtype=bool),
                    injected=np.array([True], dtype=bool),
                    home_nodes=np.array([info.home_node], dtype=np.int64),
                )
            )
            return
        self.stats.faults_seen += 1
        region = info.vaddr // self.granularity
        entry = self.table.get_or_create(region)
        tid = info.thread_id
        now = info.now_ns
        window = self.window_ns
        for other_tid, last_ns in entry.last_access.items():
            if other_tid == tid:
                continue
            if now - last_ns <= window:
                self.matrix.add(tid, other_tid, 1.0)
                self.stats.comm_events += 1
            else:
                self.stats.windowed_out += 1
        entry.touch(tid, now)
        if self._pipeline is not None:
            self._pipeline.charge_hook_time(self.detect_cost_ns)

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
        if self._pipeline is not None:
            self._pipeline.charge_hook_time(m * self.detect_cost_ns)

    def detach(self) -> None:
        """Unregister from the fault pipeline."""
        if self._pipeline is not None:
            if self.engine == "array":
                self._pipeline.remove_batch_hook(self.on_fault_batch)
            else:
                self._pipeline.remove_hook(self.on_fault)
            self._pipeline = None

    def snapshot_matrix(self) -> CommunicationMatrix:
        """A copy of the current communication matrix."""
        return self.matrix.copy()

    def shared_region_count(self) -> int:
        """Regions currently known to be shared."""
        return self.table.shared_region_count()
