"""Performance benchmarks of the library's hot kernels (pytest-benchmark).

Not a paper figure — these measure the simulator substrate itself so that
regressions in the per-access and per-fault paths are caught: the MESI
hierarchy's access path, stream generation, the fault pipeline with the SPCD
hook attached, the share table's batch touch, a serve session's ingest, the
injector wake, the hierarchical mapper, and the communication filter.
"""

from time import perf_counter

import numpy as np
import pytest

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.core.commmatrix import CommunicationMatrix
from repro.core.filter import CommunicationFilter
from repro.core.hashtable import ArrayShareTable
from repro.core.injector import FaultInjector, InjectorMode
from repro.core.mapping import HierarchicalMapper
from repro.core.spcd import SpcdDetector
from repro.machine.topology import build_machine, dual_xeon_e5_2650
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.physmem import FrameAllocator
from repro.serve import EventBatch, SessionConfig, TenantSession, synthetic_fault_stream
from repro.units import CACHE_LINE_SHIFT, MSEC, PAGE_SHIFT, PAGE_SIZE
from repro.workloads.npb import make_npb
from repro.workloads.patterns import chain_pattern, mixed_pattern


@pytest.fixture(scope="module")
def machine():
    return dual_xeon_e5_2650()


def sp_workload():
    """The Fig. 8 SP workload, set up in a fresh address space."""
    workload = make_npb("SP")
    workload.setup(AddressSpace(1 << 17))
    return workload


def test_bench_hierarchy_access_path(benchmark, machine):
    """The MESI loop as the engine runs it: one ``access_batch_pu`` per
    256-access thread batch of an SP stream, thread t on PU t (four rounds
    of the 32 threads, 32,768 accesses per call)."""
    workload = sp_workload()
    tids = np.arange(workload.n_threads)
    rngs = [np.random.default_rng(t) for t in tids]
    batches = []
    for _ in range(4):
        step_vaddrs, step_writes = workload.generate_step(tids, 256, 0, rngs)
        for t, (vaddrs, writes) in enumerate(zip(step_vaddrs, step_writes)):
            # pages are homed round-robin over the two NUMA nodes
            homes = (vaddrs >> PAGE_SHIFT) & 1
            batches.append((t, vaddrs >> CACHE_LINE_SHIFT, writes, homes))
    hier = CoherentHierarchy(machine)

    def run():
        for pu, lines, writes, homes in batches:
            hier.access_batch_pu(pu, lines, writes, homes)

    benchmark(run)
    assert hier.check_invariants() == []


def test_bench_npb_generate(benchmark):
    """Stream generation as ``Simulator._step`` makes it: one
    ``generate_step`` call for a 256-access SP batch of each of 32 threads."""
    workload = sp_workload()
    tids = np.arange(workload.n_threads)
    rngs = [np.random.default_rng(t) for t in tids]

    def run():
        return workload.generate_step(tids, 256, 0, rngs)

    vaddrs, writes = benchmark(run)
    assert vaddrs.shape == writes.shape == (workload.n_threads, 256)


def test_bench_fault_path_with_detector(benchmark, machine):
    """Cost of one injected fault through the pipeline + SPCD hook."""
    space = AddressSpace(4096)
    region = space.mmap("d", 1024 * PAGE_SIZE)
    pipeline = FaultPipeline(space, FrameAllocator(2, 100_000), node_of_pu=lambda p: 0)
    SpcdDetector(32, pipeline=pipeline)
    for vpn in region.vpns():
        pipeline.handle_fault(0, 0, int(vpn) * PAGE_SIZE, is_write=False, now_ns=0)
    table = space.page_table
    state = {"i": 0}

    def one_fault():
        vpn = int(region.first_vpn) + state["i"] % 1024
        state["i"] += 1
        table.clear_present(vpn)
        pipeline.handle_fault(state["i"] % 32, 0, vpn * PAGE_SIZE, is_write=False, now_ns=0)

    benchmark(one_fault)


@pytest.mark.parametrize(
    "size, n_threads", [(10_000, 8), (256_000, 32)], ids=["serve", "paper"]
)
def test_bench_share_table_touch_batch(benchmark, size, n_threads):
    """One 256-event batch through ``ArrayShareTable.touch_batch`` on a
    warm table, in serve's shape (the benchmark tenants' 10,000 slots and 8
    threads) and in the paper's (256,000 slots, 32 threads)."""
    batches = [
        (tid, now, vaddrs // PAGE_SIZE)
        for tid, now, vaddrs in synthetic_fault_stream(n_threads, 16 * 256, seed=0)
    ]
    table = ArrayShareTable(size, n_threads)
    for tid, now, regions in batches:
        table.touch_batch(regions, tid, now, 250 * MSEC)
    state = {"i": 0}

    def one_batch():
        tid, now, regions = batches[state["i"] % len(batches)]
        state["i"] += 1
        table.touch_batch(regions, tid, now, 250 * MSEC)

    benchmark(one_batch)


def test_bench_session_ingest(benchmark, machine):
    """One 256-event batch through ``TenantSession.ingest`` on a warm
    session, in the shape of the ``serve-narrow`` benchmark's tenants: 8
    threads, 10,000 slots, 4 shards, the far-pair stream, an evaluation
    every 8,192 events."""
    config = SessionConfig(n_threads=8, table_size=10_000, shards=4, eval_every_events=8192)
    batches = [
        EventBatch(tid=tid, now_ns=now, vaddrs=vaddrs)
        for tid, now, vaddrs in synthetic_fault_stream(8, 16 * 256, seed=0)
    ]
    session = TenantSession("bench", config, machine)
    for batch in batches:
        session.ingest(batch)
    state = {"i": 0}

    def one_batch():
        batch = batches[state["i"] % len(batches)]
        state["i"] += 1
        session.ingest(batch)

    benchmark(one_batch)
    assert session.comm_events > 0


def test_bench_injector_wake(benchmark, machine):
    """One injector wakeup over a populated 8k-page table."""
    space = AddressSpace(1 << 14)
    region = space.mmap("d", 8192 * PAGE_SIZE)
    pipeline = FaultPipeline(space, FrameAllocator(2, 100_000), node_of_pu=lambda p: 0)
    for vpn in region.vpns():
        pipeline.handle_fault(0, 0, int(vpn) * PAGE_SIZE, is_write=False, now_ns=0)
    inj = FaultInjector(
        pipeline,
        np.random.default_rng(0),
        mode=InjectorMode.STEADY,
        floor_per_wake=256,
        sampling="uniform",
    )
    table = space.page_table

    def wake():
        inj.wake(0)
        # restore so the candidate set stays constant
        for vpn in table.populated_vpns()[~table.present_mask(table.populated_vpns())]:
            table.restore_present(int(vpn))

    benchmark(wake)


def test_bench_hierarchical_mapper(benchmark, machine):
    """Full 32-thread mapping (blossom matching at two hierarchy levels)."""
    mapper = HierarchicalMapper(machine)
    rng = np.random.default_rng(0)
    comm = chain_pattern(32, 10.0) + rng.random((32, 32))
    comm = (comm + comm.T) / 2
    np.fill_diagonal(comm, 0.0)
    mapping = benchmark(mapper.map, comm)
    assert len(set(mapping.tolist())) == 32


def test_bench_mapper_512_threads():
    """A 512-thread mapping of a detected-shape (neighbour/chain) matrix
    decides within the online budget of 1 s wall."""
    machine = build_machine(8, 32, 2, name="scale512")
    detected = np.rint(mixed_pattern(512, 1000.0, 50.0))
    t0 = perf_counter()
    HierarchicalMapper(machine).map(detected)
    assert perf_counter() - t0 <= 1.0


def test_bench_communication_filter(benchmark):
    """One filter evaluation over a 32-thread matrix (Theta(N^2))."""
    matrix = CommunicationMatrix(32, chain_pattern(32, 100.0))
    filt = CommunicationFilter(32)
    filt.should_remap(matrix)
    benchmark(filt.should_remap, matrix)
