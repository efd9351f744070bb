"""Differential tests: batched fault/SPCD fast path vs the per-fault reference.

The vectorised fault pipeline (``FaultPipeline.handle_fault_batch``) and the
detector over :class:`ArrayShareTable` must be *bit identical* to the
per-fault reference path — ``FaultPipeline.handle_fault`` once per unique
faulting VPN, in ascending order, feeding :class:`PerFaultDetector`, which
replays each fault in order over the dict oracle table of
``tests/test_hashtable.py`` — with the same page-table state, frame
placement, TLB contents, communication matrices and counters.  These tests
pin that equivalence at four levels: the bulk primitives, randomised fault
streams through both complete stacks, intra-batch collision/duplicate
handling, and full simulations of the producer/consumer phase-shift
workload and a small NPB kernel.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest

from repro.core import hashtable
from repro.core.hashtable import DEFAULT_TABLE_SIZE, ArrayShareTable, hash_64, hash_64_batch
from repro.core.spcd import _SCALAR_DETECT_MAX, SpcdDetector
from repro.engine.simulator import EngineConfig, Simulator
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultBatch, FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import Tlb, TlbArray
from repro.units import PAGE_SHIFT, PAGE_SIZE
from repro.workloads.npb import make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload
from tests.test_hashtable import DictShareTable, live_entries, replay_in_fault_order


class PerFaultDetector(SpcdDetector):
    """The reference detector: a batch's faults replayed in order over the
    dict oracle table, one ``matrix.add`` per event."""

    def __init__(self, n_threads, *, table_size=DEFAULT_TABLE_SIZE, **kwargs):
        super().__init__(n_threads, table_size=table_size, **kwargs)
        self.table = DictShareTable(table_size)

    def on_fault_batch(self, batch):
        tid = batch.thread_id
        events, windowed_out = replay_in_fault_order(
            self.table, batch.vaddrs // self.granularity, tid, batch.now_ns, self.window_ns
        )
        self.stats.faults_seen += batch.n_faults
        self.stats.windowed_out += windowed_out
        self.stats.comm_events += len(events)
        for _, partner in events:
            self.matrix.add(tid, partner, 1.0)
        pipeline = self._pipeline and self._pipeline()
        if pipeline is not None:
            pipeline.charge_hook_time(batch.n_faults * self.detect_cost_ns)


# -- bulk primitives ----------------------------------------------------------


def test_hash_64_batch_matches_scalar():
    values = np.array([0, 1, 17, 2**40, 2**63 - 1], dtype=np.int64)
    for bits in (8, 18, 64):
        batch = hash_64_batch(values, bits)
        for v, h in zip(values.tolist(), batch.tolist()):
            assert h == hash_64(v, bits)


def test_allocate_batch_matches_scalar_with_spill():
    """Bulk allocation replays allocate() exactly: bump, spilling to the
    nearest node when one runs out."""
    a = FrameAllocator(n_nodes=4, frames_per_node=8)
    b = FrameAllocator(n_nodes=4, frames_per_node=8)
    for alloc in (a, b):
        alloc.allocate(1)
        alloc.allocate(1)
        alloc.allocate_batch(2, 3)
    # node 1's 6 frames, then the nearest nodes by id: all 8 of node 0,
    # then 2 of the 5 node 2 has left
    want = 16
    got_a = [a.allocate(1) for _ in range(want)]
    got_b = b.allocate_batch(1, want).tolist()
    assert got_a == got_b
    assert [a.node_of_frame(f) for f in got_a] == b.nodes_of_frames(
        np.asarray(got_b)
    ).tolist()


def test_tlb_insert_batch_matches_loop():
    vpns = np.arange(100, dtype=np.int64)
    frames = vpns * 7
    loop, batch = Tlb(capacity=16), Tlb(capacity=16)
    for v, f in zip(vpns.tolist(), frames.tolist()):
        loop.insert(v, f)
    batch.insert_batch(vpns, frames, assume_unique=True)  # shortcut path
    assert list(loop._entries.items()) == list(batch._entries.items())

    small_v, small_f = vpns[:5], frames[:5]
    loop2, batch2 = Tlb(capacity=16), Tlb(capacity=16)
    for v, f in zip(small_v.tolist(), small_f.tolist()):
        loop2.insert(v, f)
    batch2.insert_batch(small_v, small_f, assume_unique=True)  # loop path
    assert list(loop2._entries.items()) == list(batch2._entries.items())


def test_bulk_shootdown_matches_scalar_invalidate():
    bulk, scalar = TlbArray(3, capacity=8), TlbArray(3, capacity=8)
    for tlbs in (bulk, scalar):
        for pu in range(3):
            for vpn in range(pu, pu + 6):
                tlbs[pu].insert(vpn, vpn * 10)
    targets = np.array([2, 3, 100], dtype=np.int64)
    removed = bulk.shootdown(targets)
    expected = sum(
        scalar[pu].invalidate(int(v)) for pu in range(3) for v in targets
    )
    assert removed == expected
    for pu in range(3):
        assert sorted(bulk[pu]._entries) == sorted(scalar[pu]._entries)
        assert bulk[pu].invalidations == scalar[pu].invalidations


# -- stack-level randomized fault streams -------------------------------------


def _build_stack(
    detector_cls,
    *,
    n_threads=8,
    n_pages=192,
    table_size=251,
    granularity=PAGE_SIZE,
    initial_rows=hashtable._INITIAL_ROWS,
):
    space = AddressSpace(1 << 12)
    region = space.mmap("data", n_pages * PAGE_SIZE)
    frames = FrameAllocator(n_nodes=4, frames_per_node=n_pages)
    tlbs = TlbArray(n_threads, capacity=16)
    pipeline = FaultPipeline(space, frames, tlbs, node_of_pu=lambda pu: pu % 4)
    with patch.object(hashtable, "_INITIAL_ROWS", initial_rows):
        detector = detector_cls(
            n_threads,
            table_size=table_size,
            granularity=granularity,
            window_ns=5_000,
            pipeline=pipeline,
        )
    return space, region, pipeline, detector, tlbs


def _drive_differential(
    seed,
    table_size,
    granularity=PAGE_SIZE,
    steps=300,
    max_batch=24,
    initial_rows=hashtable._INITIAL_ROWS,
):
    """Run one random fault stream through both stacks and compare everything.

    Returns the detector passes (``"scalar"``, ``"vector"``) in which the
    fast table's row store grew.
    """
    rng = np.random.default_rng(seed)
    stack = dict(table_size=table_size, granularity=granularity, initial_rows=initial_rows)
    fast = _build_stack(SpcdDetector, **stack)
    slow = _build_stack(PerFaultDetector, **stack)
    f_space, f_region, f_pipe, f_det, f_tlbs = fast
    s_space, s_region, s_pipe, s_det, s_tlbs = slow
    vpn_lo = int(f_region.vpns()[0])
    vpn_hi = int(f_region.vpns()[-1])

    grown_in = set()
    for step in range(steps):
        tid = int(rng.integers(0, 8))
        m = int(rng.integers(1, max_batch))
        vpns = rng.integers(vpn_lo, vpn_hi + 1, size=m)
        vaddrs = (vpns << PAGE_SHIFT) + rng.integers(0, PAGE_SIZE, size=m)
        writes = rng.random(m) < 0.4
        now = step * 700
        mask = f_pipe.faulting_mask(vpns)
        if not mask.any():
            present = f_space.page_table.present_vpns()
            chosen = rng.choice(present, size=min(30, present.size), replace=False)
            for space, tlbs in ((f_space, f_tlbs), (s_space, s_tlbs)):
                space.page_table.clear_present(chosen)
                tlbs.shootdown(chosen)
            continue
        va, wr = vaddrs[mask], writes[mask]
        # fast stack: one batched call
        rows = f_det.table._last.shape[0]
        f_pipe.handle_fault_batch(tid, tid, va, wr, now_ns=now)
        if f_det.table._last.shape[0] > rows:
            n_faults = np.unique(va >> PAGE_SHIFT).size
            grown_in.add("scalar" if n_faults <= _SCALAR_DETECT_MAX else "vector")
        # slow stack: reference per-fault loop (ascending unique VPNs)
        _, first = np.unique(va >> PAGE_SHIFT, return_index=True)
        for k in first:
            s_pipe.handle_fault(tid, tid, int(va[k]), is_write=bool(wr[k]), now_ns=now)

    # detector: matrix, stats, table counters, live entries
    assert isinstance(f_det.table, ArrayShareTable)
    assert np.array_equal(f_det.matrix.matrix, s_det.matrix.matrix)
    assert f_det.stats == s_det.stats
    assert f_det.table.collisions == s_det.table.collisions
    assert f_det.table.inserts == s_det.table.inserts
    assert len(f_det.table) == len(s_det.table)
    assert f_det.shared_region_count() == s_det.shared_region_count()
    assert live_entries(f_det.table) == s_det.table.live()
    # pipeline counters and accounting
    assert f_pipe.first_touch_faults == s_pipe.first_touch_faults
    assert f_pipe.injected_faults == s_pipe.injected_faults
    assert f_pipe.fault_time_ns == s_pipe.fault_time_ns
    assert f_pipe.hook_time_ns == s_pipe.hook_time_ns
    # page table state, frame placement, walk accounting
    ft, st = f_space.page_table, s_space.page_table
    assert np.array_equal(ft._frame, st._frame)
    assert np.array_equal(ft._home_node, st._home_node)
    assert np.array_equal(ft._dirty, st._dirty)
    assert ft.walk_count == st.walk_count
    # TLBs: exact LRU order per PU
    for f_tlb, s_tlb in zip(f_tlbs.tlbs, s_tlbs.tlbs):
        assert list(f_tlb._entries.items()) == list(s_tlb._entries.items())
    return grown_in


@pytest.mark.parametrize("table_size", [7, 251, 4096])
def test_random_fault_streams_are_bit_identical(table_size):
    """Random streams across table sizes; size 7 forces constant collisions."""
    _drive_differential(seed=100 + table_size, table_size=table_size)


@pytest.mark.parametrize("table_size", [61, 4096])
def test_row_store_growth_is_exact(table_size):
    """From one row, the table's row store grows on scalar inserts and
    inside vectorised batches; on 61 slots, collisions reuse rows (the
    table length, its used rows, equals the oracle's occupied slots)."""
    grown_in = _drive_differential(seed=1, table_size=table_size, initial_rows=1)
    assert grown_in == {"scalar", "vector"}


def test_coarse_granularity_duplicate_regions():
    """Granularity above the page size maps several batch VPNs onto one
    region — the intra-batch slot-conflict replay must stay bit-identical."""
    _drive_differential(
        seed=9, table_size=61, granularity=4 * PAGE_SIZE, steps=200, max_batch=40
    )


def test_one_fault_batches_match_scalar_entry_point():
    """m=1 batches (the scalar cutover's smallest case) equal handle_fault."""
    _drive_differential(seed=5, table_size=251, steps=150, max_batch=2)


# -- full simulations ---------------------------------------------------------


def _per_fault_batch(self, thread_id, pu_id, vaddrs, is_write, *, now_ns):
    """Reference ``handle_fault_batch``: one ``handle_fault`` per unique
    faulting VPN, ascending, the first access of each VPN winning."""
    vaddrs = np.asarray(vaddrs, dtype=np.int64)
    is_write = np.asarray(is_write, dtype=bool)
    _, first = np.unique(vaddrs >> PAGE_SHIFT, return_index=True)
    infos = [
        self.handle_fault(
            thread_id, pu_id, int(vaddrs[k]), is_write=bool(is_write[k]), now_ns=now_ns
        )
        for k in first
    ]
    return FaultBatch(
        thread_id=thread_id,
        pu_id=pu_id,
        now_ns=now_ns,
        vaddrs=vaddrs[first],
        vpns=np.array([i.vpn for i in infos], dtype=np.int64),
        is_write=is_write[first],
        injected=np.array([i.kind.value == "injected" for i in infos], dtype=bool),
        home_nodes=np.array([i.home_node for i in infos], dtype=np.int64),
    )


@pytest.mark.parametrize(
    "name,factory",
    [
        ("prodcons", lambda: ProducerConsumerWorkload(n_threads=32)),
        ("cg", lambda: make_npb("CG")),
    ],
)
def test_full_simulation_parity(name, factory, monkeypatch):
    """End-to-end: the simulator's fault/SPCD path vs the per-fault reference
    (the fault loop above plus :class:`PerFaultDetector`)."""
    cfg = EngineConfig(steps=30, batch_size=128)
    fast = Simulator(factory(), "spcd", seed=7, config=cfg).run()
    monkeypatch.setattr(FaultPipeline, "handle_fault_batch", _per_fault_batch)
    monkeypatch.setattr("repro.core.manager.SpcdDetector", PerFaultDetector)
    reference = Simulator(factory(), "spcd", seed=7, config=cfg)
    assert isinstance(reference.manager.detector.table, DictShareTable)
    slow = reference.run()

    assert np.array_equal(fast.detected_matrix.matrix, slow.detected_matrix.matrix)
    assert fast.perf.faults == slow.perf.faults
    assert fast.first_touch_faults == slow.first_touch_faults
    assert fast.injected_faults == slow.injected_faults
    assert fast.migrations == slow.migrations
    for metric in ("exec_time_s", "l2_mpki", "l3_mpki", "c2c_transactions"):
        assert fast.metric(metric) == slow.metric(metric)
    # The subsystem timers are disjoint sub-intervals of the run's wall
    # clock; a negative raw residual would mean two timers double-count.
    for result in (fast, slow):
        assert result.perf.other_s >= 0.0
        assert result.perf.tracked_s <= result.perf.wall_s
