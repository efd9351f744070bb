"""Fault-path microbenchmark: batched fast path vs per-fault reference.

Drives an identical fault-heavy stream through two complete fault stacks —
pipeline, TLBs and SPCD detector — once through the vectorised batch path
(``FaultPipeline.handle_fault_batch`` + the array-table detector engine) and
once through the per-fault reference path (``handle_fault`` loop + the
dict-table engine), asserts the two end states are bit-identical, and
reports the fault throughput of each.

Standalone on purpose: no pytest/conftest imports, so the tier-1 smoke test
can load it directly and ``bench_kernels.py`` can import it when the
benchmark suite runs.  Only needs ``src`` on ``sys.path``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.spcd import SpcdDetector
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.mem.tlb import TlbArray
from repro.units import PAGE_SHIFT, PAGE_SIZE


def _build_stack(engine: str, n_threads: int, n_pages: int, table_size: int):
    """One complete fault stack with the requested detector engine."""
    space = AddressSpace(max(1 << 14, 2 * n_pages))
    region = space.mmap("data", n_pages * PAGE_SIZE)
    frames = FrameAllocator(n_nodes=2, frames_per_node=n_pages + 64)
    tlbs = TlbArray(n_threads, capacity=64)
    pipeline = FaultPipeline(space, frames, tlbs, node_of_pu=lambda pu: pu % 2)
    detector = SpcdDetector(
        n_threads,
        table_size=table_size,
        pipeline=pipeline,
        engine=engine,
    )
    return space, region, pipeline, detector, tlbs


def _make_stream(
    rng: np.random.Generator,
    region_vpns: np.ndarray,
    n_threads: int,
    batches: int,
    faults_per_batch: int,
):
    """Pregenerated (tid, vaddrs, writes) batches, identical for both stacks."""
    stream = []
    for b in range(batches):
        tid = int(rng.integers(0, n_threads))
        vpns = rng.choice(region_vpns, size=faults_per_batch, replace=False)
        vaddrs = (vpns << PAGE_SHIFT) + rng.integers(0, PAGE_SIZE, size=vpns.size)
        writes = rng.random(vpns.size) < 0.3
        stream.append((tid, np.sort(vpns), vaddrs, writes))
    return stream


def run_spcd_fault_bench(
    *,
    n_threads: int = 32,
    n_pages: int = 4096,
    batches: int = 200,
    faults_per_batch: int = 256,
    table_size: int = 16_384,
    seed: int = 0,
) -> dict:
    """Run the benchmark; returns the ``BENCH_spcd.json`` payload.

    Every batch clears the present bits of ``faults_per_batch`` random pages
    (the injector's effect) and then resolves them — through one
    ``handle_fault_batch`` call on the fast stack, and through the reference
    per-fault loop (one ``handle_fault`` per unique VPN, ascending — the
    order ``handle_fault_batch`` resolves in) on the slow stack.  Asserts
    both end states match bit for bit before reporting throughput.
    """
    rng = np.random.default_rng(seed)
    fast = _build_stack("array", n_threads, n_pages, table_size)
    slow = _build_stack("dict", n_threads, n_pages, table_size)
    stream = _make_stream(rng, fast[1].vpns(), n_threads, batches, faults_per_batch)

    # Pre-populate every page (untimed) so the stream is injected faults.
    for space, region, pipeline, _, _ in (fast, slow):
        vpns = region.vpns()
        pipeline.handle_fault_batch(
            0, 0, vpns << PAGE_SHIFT, np.zeros(vpns.size, dtype=bool), now_ns=0
        )

    def drive_fast() -> float:
        space, _, pipeline, _, tlbs = fast
        table = space.page_table
        total = 0.0
        for step, (tid, vpns, vaddrs, writes) in enumerate(stream):
            table.clear_present(vpns)
            tlbs.shootdown(vpns)
            t0 = perf_counter()
            pipeline.handle_fault_batch(tid, tid, vaddrs, writes, now_ns=step)
            total += perf_counter() - t0
        return total

    def drive_slow() -> float:
        space, _, pipeline, _, tlbs = slow
        table = space.page_table
        total = 0.0
        for step, (tid, vpns, vaddrs, writes) in enumerate(stream):
            table.clear_present(vpns)
            tlbs.shootdown(vpns)
            t0 = perf_counter()
            fault_vpns = vaddrs >> PAGE_SHIFT
            _, first = np.unique(fault_vpns, return_index=True)
            for k in first:
                pipeline.handle_fault(
                    tid, tid, int(vaddrs[k]), is_write=bool(writes[k]), now_ns=step
                )
            total += perf_counter() - t0
        return total

    t_fast = drive_fast()
    t_slow = drive_slow()

    # Differential check: the two stacks must agree bit for bit.
    f_det, s_det = fast[3], slow[3]
    assert np.array_equal(f_det.matrix.matrix, s_det.matrix.matrix)
    assert f_det.stats == s_det.stats
    assert (f_det.table.collisions, f_det.table.inserts) == (
        s_det.table.collisions,
        s_det.table.inserts,
    )
    f_pipe, s_pipe = fast[2], slow[2]
    assert f_pipe.first_touch_faults == s_pipe.first_touch_faults
    assert f_pipe.injected_faults == s_pipe.injected_faults
    assert f_pipe.fault_time_ns == s_pipe.fault_time_ns
    assert f_pipe.hook_time_ns == s_pipe.hook_time_ns

    faults = batches * faults_per_batch
    return {
        "faults": faults,
        "batches": batches,
        "faults_per_batch": faults_per_batch,
        "n_threads": n_threads,
        "fast_faults_per_s": faults / t_fast,
        "slow_faults_per_s": faults / t_slow,
        "speedup": t_slow / t_fast,
    }


if __name__ == "__main__":
    import json

    print(json.dumps(run_spcd_fault_bench(), indent=2))
