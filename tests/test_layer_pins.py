"""Pins of the two hot layers: stream generation and the MESI loop.

Each workload generates 20 batches of 256 accesses for each of its 32
threads, thread ``t`` drawing from ``np.random.default_rng(t)`` while
``now_ns`` advances across the phase boundaries of PageRank and
producer/consumer.  The generation pin is a SHA-256 of every address and
write flag; the hierarchy pin feeds the same streams through
``access_batch_pu`` (thread ``t`` on PU ``t`` of the paper's machine) and
digests the whole resulting cache and directory state.  The paper's
20-MiB L3s never evict in these streams, so two of them are also pinned
on the same topology with small caches, where every level evicts and L3
victims back-invalidate (the first five rounds suffice).

The generation pin is checked twice: with one ``generate`` call per thread
batch, and with one ``generate_step`` call over all 32 threads per round,
as the simulator makes it.  Both pins use no simulated time and no float
reductions, so they hold wherever numpy's ``Generator`` streams do.  The values were recorded
before the generator and the hierarchy loop were rewritten for speed; a
rewrite that changes one draw, one LRU order or one counter fails here.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.graphs.workloads import make_pagerank, make_spmv
from repro.machine.cache_params import CacheParams
from repro.machine.topology import build_machine, dual_xeon_e5_2650
from repro.mem.addresspace import AddressSpace
from repro.units import CACHE_LINE_SHIFT, KIB, MSEC, PAGE_SHIFT
from repro.workloads.npb import make_npb
from repro.workloads.producer_consumer import ProducerConsumerWorkload

N_THREADS = 32
N_BATCHES = 20
BATCH = 256
#: advance of ``now_ns`` per batch round: 20 rounds cross the 150-ms
#: phase period of PageRank and producer/consumer five times
ROUND_NS = 40 * MSEC

WORKLOADS = {
    "SP": lambda: make_npb("SP"),
    "CG": lambda: make_npb("CG"),
    "FT": lambda: make_npb("FT"),
    "EP": lambda: make_npb("EP"),
    "producer_consumer": ProducerConsumerWorkload,
    "spmv": make_spmv,
    "pagerank": make_pagerank,
}

#: SHA-256 of the generated streams
GENERATION_PINS = {
    "SP": "37ebeba91ceeed73ff3c2a8bb9c46a093e5f06c31a7c4528b8c0b4e0488e7e20",
    "CG": "4cc27f55b685bee97f8c7be294a3a984c5e958da9313cd3e445e456bda9fa0b2",
    "FT": "f6ed7e4ef3778bf370e779f03a4ef706d3910e054de1ad579da9bc7fa0ec743d",
    "EP": "e525d5f75c7f168dea00d44d38ba2fe1d160e28bd23da82f75599d984e214e62",
    "producer_consumer": "a35d5c2ddf69a1080bd3a08a2fa6c94850095ac1b6aea06fa13181fd99fb7748",
    "spmv": "5bbd120d6e3a9aa35a036d7d5378025937807ab2846a76e419531d79c9944ecc",
    "pagerank": "f0d66641a5c90853fb6dc04d1d258e9544cc88bfc1901abd7a46e231cd00f772",
}

#: SHA-256 of the hierarchy state after the streams
HIERARCHY_PINS = {
    "SP": "545606a1adc2b9461869de2f1c01063c2cb2218f12f69ba7a7bb5440f3e12c38",
    "CG": "94564a4d7ccc4f67ce3db547d04033fa8061290eabdd0cdee2613aa8ff44c8b5",
    "FT": "29e032f56da5fce5720bd2a74261947e7b6f44dd0e4f223a7aafd5db29f2a11f",
    "EP": "2b4ea9a87b16442e98b075ec8792449b002dcc9a774e5eeeea32a189f4864f4b",
    "producer_consumer": "4f893974e6fd96ac6d6145bfc25392039482fda07cf2859bdc2da6b7d496432f",
    "spmv": "ec52df688d0896c22d53bb1f3ada87db5ac85261e86cc08aa13814f2aa330b6a",
    "pagerank": "850b55de5a79044fea21704f3839c773f9231f9fe2e8f49139bb9febd4addb8a",
}

#: batch rounds fed to the small-cache machine
SMALL_CACHE_ROUNDS = 5
#: SHA-256 of the small-cache hierarchy state after those rounds
SMALL_CACHE_PINS = {
    "SP": "7e8a2b59f8a6fd300f9ac2bdb70b482cab62340c17652be5af3d8e50a2224cca",
    "producer_consumer": "64f3cb5ded7f6ddf78246ee891ac6c3160bb1c149eedeec149fabb440c1a3e64",
}


def small_cache_machine():
    """The paper's topology (2 sockets x 8 cores x 2 SMT) with 16-line
    L1s, 64-line L2s and 512-line L3s."""
    return build_machine(
        2, 8, 2,
        name="small-caches",
        l1=CacheParams("L1", 1 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 4 * KIB, 4, 64, 6.0, 2),
        l3=CacheParams("L3", 32 * KIB, 8, 64, 15.0, 3),
    )


@functools.cache
def per_thread_generation(name: str) -> tuple[list, list[float]]:
    """``(tid, vaddrs, is_write)`` of every batch, round by round, made by
    one ``generate`` call per thread batch, and each thread's next uniform
    draw after them (cached: every pin of a workload reads the same
    streams)."""
    wl = WORKLOADS[name]()
    wl.setup(AddressSpace(1 << 17))
    rngs = [np.random.default_rng(t) for t in range(N_THREADS)]
    out = []
    for b in range(N_BATCHES):
        for t in range(N_THREADS):
            batch = wl.generate(t, BATCH, b * ROUND_NS, rngs[t])
            out.append((t, batch.vaddrs, batch.is_write))
    return out, [rng.random() for rng in rngs]


def streams(name: str) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """``(tid, vaddrs, is_write)`` of every batch, round by round."""
    return per_thread_generation(name)[0]


def generation_digest(name: str, batches=None) -> str:
    h = hashlib.sha256()
    for _, vaddrs, writes in streams(name) if batches is None else batches:
        h.update(np.ascontiguousarray(vaddrs, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(writes, dtype=np.uint8).tobytes())
    return h.hexdigest()


def run_hierarchy(name: str, machine=None, rounds: int = N_BATCHES) -> CoherentHierarchy:
    hier = CoherentHierarchy(machine or dual_xeon_e5_2650())
    for tid, vaddrs, writes in streams(name)[: rounds * N_THREADS]:
        # pages are homed round-robin over the two NUMA nodes
        hier.access_batch_pu(
            tid, vaddrs >> CACHE_LINE_SHIFT, writes, (vaddrs >> PAGE_SHIFT) & 1
        )
    return hier


def hierarchy_state(hier: CoherentHierarchy) -> tuple:
    """Everything the hierarchy holds: counters, LRU orders, L3 dirty
    flags, and each privately cached line's sharer mask and dirty owner."""
    caches = [*hier.l1, *hier.l2, *hier.l3]
    private = sorted({line for cache in hier.l2 for line in cache.resident_lines()})
    return (
        hier.stats.snapshot(),
        [
            (c.name, c.hits, c.misses, c.evictions, c.resident_lines())
            for c in caches
        ],
        [[c.is_dirty(line) for line in c.resident_lines()] for c in hier.l3],
        [(line, hier.sharer_mask(line), hier.dirty_owner(line)) for line in private],
    )


def hierarchy_digest(hier: CoherentHierarchy) -> str:
    return hashlib.sha256(repr(hierarchy_state(hier)).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generation_pin(name):
    assert generation_digest(name) == GENERATION_PINS[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_step_generation_pin(name):
    """One ``generate_step`` call over all 32 threads per round makes the
    pinned streams, and leaves every generator where the per-thread calls
    leave it."""
    wl = WORKLOADS[name]()
    wl.setup(AddressSpace(1 << 17))
    rngs = [np.random.default_rng(t) for t in range(N_THREADS)]
    batches = []
    for b in range(N_BATCHES):
        vaddrs, writes = wl.generate_step(range(N_THREADS), BATCH, b * ROUND_NS, rngs)
        assert vaddrs.shape == writes.shape == (N_THREADS, BATCH)
        assert vaddrs.dtype == np.int64 and writes.dtype == bool
        batches.extend((t, vaddrs[t], writes[t]) for t in range(N_THREADS))
    assert generation_digest(name, batches) == GENERATION_PINS[name]
    assert [rng.random() for rng in rngs] == per_thread_generation(name)[1]


def check_conservation(hier: CoherentHierarchy, rounds: int = N_BATCHES) -> None:
    assert hier.check_invariants() == []
    s = hier.stats
    assert s.l1_hits + s.l1_misses == rounds * N_THREADS * BATCH
    assert s.l1_misses == s.l2_hits + s.l2_misses
    assert s.l2_misses == s.l3_hits + s.l3_misses


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_hierarchy_pin(name):
    hier = run_hierarchy(name)
    check_conservation(hier)
    assert hierarchy_digest(hier) == HIERARCHY_PINS[name]


@pytest.mark.parametrize("name", sorted(SMALL_CACHE_PINS))
def test_small_cache_hierarchy_pin(name):
    hier = run_hierarchy(name, small_cache_machine(), SMALL_CACHE_ROUNDS)
    check_conservation(hier, SMALL_CACHE_ROUNDS)
    for cache in (*hier.l1, *hier.l2, *hier.l3):
        assert cache.evictions > 0, cache.name
    assert hier.stats.back_invalidations > 0
    assert hier.stats.dram_writebacks > 0
    assert hierarchy_digest(hier) == SMALL_CACHE_PINS[name]
