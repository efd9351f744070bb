"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import Counter
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.hierarchy import CoherentHierarchy
from repro.cachesim.stats import BatchCounts
from repro.core.commmatrix import CommunicationMatrix
from repro.core.grouping import group_matrix
from repro.core.hashtable import ArrayShareTable, hash_64
from repro.core.matching import (
    greedy_matching,
    matching_weight,
    max_weight_perfect_matching,
)
from repro.core.spcd import SpcdDetector
from repro.errors import WorkloadError
from repro.machine.cache_params import CacheParams
from repro.machine.topology import build_machine
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.pagetable import PageTable
from repro.mem.physmem import FrameAllocator
from repro.units import CACHE_LINE_SIZE, KIB, PAGE_SHIFT, PAGE_SIZE
from repro.workloads.base import Workload
from tests.test_hashtable import live_entries
from tests.test_layer_pins import hierarchy_state, small_cache_machine


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------
def symmetric_matrix(n, values):
    m = np.zeros((n, n))
    iu = np.triu_indices(n, 1)
    m[iu] = values
    return m + m.T


@given(
    n=st.sampled_from([2, 4, 6, 8]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_perfect_matching_dominates_greedy_and_covers(n, data):
    values = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=100),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        )
    )
    w = symmetric_matrix(n, values)
    pairs = max_weight_perfect_matching(w)
    # perfect cover
    assert sorted(v for p in pairs for v in p) == list(range(n))
    # optimality dominates greedy
    assert matching_weight(w, pairs) >= matching_weight(w, greedy_matching(w)) - 1e-9


@given(
    perm_seed=st.integers(0, 2**31),
    n=st.sampled_from([4, 6]),
    data=st.data(),
)
@settings(max_examples=25, deadline=None)
def test_matching_weight_invariant_under_relabelling(perm_seed, n, data):
    """Optimal matching weight is invariant under vertex permutation."""
    values = data.draw(
        st.lists(
            st.integers(0, 50), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2
        )
    )
    w = symmetric_matrix(n, values)
    perm = np.random.default_rng(perm_seed).permutation(n)
    wp = w[np.ix_(perm, perm)]
    w1 = matching_weight(w, max_weight_perfect_matching(w))
    w2 = matching_weight(wp, max_weight_perfect_matching(wp))
    assert w1 == w2


# ---------------------------------------------------------------------------
# communication matrix
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0, 100)),
        max_size=60,
    )
)
@settings(max_examples=50, deadline=None)
def test_comm_matrix_stays_symmetric_nonneg(ops):
    m = CommunicationMatrix(8)
    for i, j, amount in ops:
        m.add(i, j, amount)
    arr = m.matrix
    assert np.allclose(arr, arr.T)
    assert (arr >= 0).all()
    assert np.all(np.diag(arr) == 0)


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0.1, 10)),
        min_size=1,
        max_size=40,
    ),
    factor=st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_decay_preserves_pattern_shape(ops, factor):
    m = CommunicationMatrix(6)
    for i, j, amount in ops:
        m.add(i, j, amount)
    before = m.matrix.copy()
    m.decay(factor)
    assert np.allclose(m.matrix, before * factor)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_group_matrix_conserves_cross_communication(data):
    n = 8
    values = data.draw(
        st.lists(st.floats(0, 10), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    m = symmetric_matrix(n, values)
    groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
    h = group_matrix(m, groups)
    # Total cross-group communication is preserved.
    intra = sum(m[a, b] + m[b, a] for a, b in groups)
    assert h.sum() == (m.sum() - intra) or abs(h.sum() - (m.sum() - intra)) < 1e-9


# ---------------------------------------------------------------------------
# hash table
# ---------------------------------------------------------------------------
@given(regions=st.lists(st.integers(0, 2**48), min_size=1, max_size=200))
@settings(max_examples=30, deadline=None)
def test_share_table_lookup_consistency(regions):
    """After any insertion sequence, each slot holds the last region hashed
    to it, and a lookup of a live region finds its own entry — never an
    aliased entry of a different region."""
    t = ArrayShareTable(64, 2)
    for r in regions:
        t.touch(r, 0, 1, 10)
    last_per_slot = {hash_64(r) % 64: r for r in regions}
    assert set(live_entries(t)) == set(last_per_slot.values())
    for r in last_per_slot.values():
        assert t.touch(r, 1, 2, 10) == ([0], 0)  # a hit on r's entry


@given(value=st.integers(0, 2**64 - 1), bits=st.integers(1, 64))
@settings(max_examples=100, deadline=None)
def test_hash64_range(value, bits):
    assert 0 <= hash_64(value, bits) < (1 << bits)


# ---------------------------------------------------------------------------
# SPCD detector
# ---------------------------------------------------------------------------
#: fault streams of 8 threads on 64 pages: ``(tid, time step, pages)`` per
#: batch, 1-40 distinct pages a batch (both sides of the scalar detection
#: cutover)
FAULT_STREAMS = st.lists(
    st.tuples(
        st.integers(0, 7),
        st.integers(0, 1_000),
        st.lists(st.integers(0, 63), min_size=1, max_size=40, unique=True),
    ),
    max_size=16,
)


def detect_stream(batches, thread_of=range(8), **detector_kwargs):
    """Feed *batches* through a pipeline with a detector attached, thread
    *tid* faulting as ``thread_of[tid]``; returns the detector and pipeline."""
    space = AddressSpace(256)
    first_vpn = space.mmap("data", 64 * PAGE_SIZE).first_vpn
    pipeline = FaultPipeline(space, FrameAllocator(1, 1_000), node_of_pu=lambda pu: 0)
    det = SpcdDetector(8, pipeline=pipeline, **detector_kwargs)
    now = 0
    for tid, step, pages in batches:
        now += step
        vpns = first_vpn + np.asarray(pages, dtype=np.int64)
        space.page_table.clear_present(vpns)  # every access faults
        tid = thread_of[tid]
        pipeline.handle_fault_batch(
            tid, tid, vpns << PAGE_SHIFT, np.zeros(vpns.size, dtype=bool), now_ns=now
        )
    return det, pipeline


@given(
    table_size=st.integers(1, 4096),
    window_ns=st.integers(1, 2_000),
    # quarter-nanosecond costs keep every sum of charges exact in float64
    detect_cost_ns=st.integers(0, 4_000).map(lambda k: k / 4),
    batches=FAULT_STREAMS,
)
@settings(max_examples=100, deadline=None)
def test_detector_invariants_for_any_fault_stream(
    table_size, window_ns, detect_cost_ns, batches
):
    """Every detected event is one unit of a symmetric, zero-diagonal
    matrix; the hook sees each fault once and charges each one its cost."""
    det, pipeline = detect_stream(
        batches, table_size=table_size, window_ns=window_ns, detect_cost_ns=detect_cost_ns
    )
    m = det.matrix.matrix
    assert det.matrix.total() == det.stats.comm_events
    assert np.array_equal(m, m.T)
    assert not m.diagonal().any()
    assert det.stats.faults_seen == sum(len(pages) for _, _, pages in batches)
    assert pipeline.hook_time_ns == det.stats.faults_seen * detect_cost_ns


@given(
    table_size=st.integers(1, 4096),
    window_ns=st.integers(1, 2_000),
    perm=st.permutations(range(8)),
    batches=FAULT_STREAMS,
)
@settings(max_examples=100, deadline=None)
def test_relabelling_threads_permutes_the_detected_matrix(
    table_size, window_ns, perm, batches
):
    """Thread ids are labels: a stream whose thread *t* faults as
    ``perm[t]`` detects ``P M P^T`` with the same counters."""
    kwargs = dict(table_size=table_size, window_ns=window_ns)
    det, _ = detect_stream(batches, **kwargs)
    relabelled, _ = detect_stream(batches, thread_of=perm, **kwargs)
    p = np.zeros((8, 8))
    p[perm, range(8)] = 1.0  # P e_t = e_perm[t]
    assert np.array_equal(relabelled.matrix.matrix, p @ det.matrix.matrix @ p.T)
    assert relabelled.stats == det.stats
    assert (relabelled.table.collisions, relabelled.table.inserts) == (
        det.table.collisions,
        det.table.inserts,
    )


# ---------------------------------------------------------------------------
# page table
# ---------------------------------------------------------------------------
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 31)), min_size=1, max_size=200
    )
)
@settings(max_examples=50, deadline=None)
def test_page_table_consistency_under_any_op_sequence(ops):
    table = PageTable(32)
    populated = set()
    next_frame = 0
    for op, vpn in ops:
        if op == 0 and vpn not in populated:
            table.map_page(vpn, next_frame, vpn % 2)
            populated.add(vpn)
            next_frame += 1
        elif op == 1 and vpn in populated:
            table.mark_accessed(vpn, dirty=bool(vpn % 3))
        elif op == 2:
            table.clear_present(vpn)
        elif op == 3 and vpn in populated and table.is_present(vpn) is False:
            table.restore_present(vpn)
    assert table.consistency_ok()
    assert set(table.populated_vpns().tolist()) == populated


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------
@given(lines=st.lists(st.integers(0, 500), min_size=1, max_size=300))
@settings(max_examples=30, deadline=None)
def test_cache_capacity_never_exceeded(lines):
    """One PU's accesses through the MESI loop on the small-cache machine
    never overfill a set of its L1, L2 or L3."""
    hier = CoherentHierarchy(small_cache_machine())
    hier.access_batch_pu(0, lines, [False] * len(lines), [0] * len(lines))
    for cache in (hier.l1[0], hier.l2[0], hier.l3[0]):
        per_set = Counter(line % cache.num_sets for line in cache.resident_lines())
        assert all(count <= cache.ways for count in per_set.values())
        # the most recently accessed line is resident at every level
        assert cache.contains(lines[-1])


@given(
    accesses=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 80), st.booleans(), st.integers(0, 1)),
        min_size=1,
        max_size=400,
    )
)
@settings(max_examples=25, deadline=None)
def test_hierarchy_invariants_hold_for_any_access_sequence(accesses):
    machine = build_machine(
        2, 2, 2,
        l1=CacheParams("L1", 1 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 2 * KIB, 2, 64, 6.0, 2),
        l3=CacheParams("L3", 4 * KIB, 4, 64, 15.0, 3),
    )
    hier = CoherentHierarchy(machine)
    for pu, line, is_write, home in accesses:
        hier.access(pu, line, is_write, home)
    assert hier.check_invariants() == []
    s = hier.stats
    # accounting sanity: every private miss is resolved exactly once
    assert s.l2_misses == s.l3_hits + s.l3_misses
    assert s.l1_misses == s.l2_hits + s.l2_misses
    resolved = s.c2c_inter + s.dram_reads_local + s.dram_reads_remote
    assert resolved <= s.l3_misses + s.c2c_intra + 1


@given(
    runs=st.lists(
        st.tuples(
            st.integers(0, 7),
            st.lists(
                st.tuples(st.integers(0, 80), st.booleans(), st.integers(0, 1)),
                min_size=1,
                max_size=24,
            ),
        ),
        min_size=1,
        max_size=20,
    ),
    data=st.data(),
)
@settings(max_examples=30, deadline=None)
def test_hierarchy_state_independent_of_batch_split(runs, data):
    """One access at a time, one ``access_batch_pu`` per maximal same-PU run,
    those runs cut anywhere, and one multi-PU ``access_batch`` leave the
    same caches, counters and directory: the loop's per-batch counter flush
    and per-batch aliases are invisible."""
    pus = [pu for pu, accesses in runs for _ in accesses]
    lines, writes, homes = (
        list(column) for column in zip(*(a for _, accesses in runs for a in accesses))
    )
    # the tiny-cache machine above: constant evictions and back-invalidations
    machine = build_machine(
        2, 2, 2,
        l1=CacheParams("L1", 1 * KIB, 2, 64, 2.0, 1),
        l2=CacheParams("L2", 2 * KIB, 2, 64, 6.0, 2),
        l3=CacheParams("L3", 4 * KIB, 4, 64, 15.0, 3),
    )
    one_by_one, per_run, cut, multi = (CoherentHierarchy(machine) for _ in range(4))
    for args in zip(pus, lines, writes, homes):
        one_by_one.access(*args)
    start = 0
    for pu, run in groupby(pus):
        stop = start + sum(1 for _ in run)
        per_run.access_batch_pu(pu, lines[start:stop], writes[start:stop], homes[start:stop])
        cuts = data.draw(st.sets(st.integers(start + 1, stop - 1))) if stop > start + 1 else ()
        bounds = [start, *sorted(cuts), stop]
        for a, b in zip(bounds, bounds[1:]):
            cut.access_batch_pu(pu, lines[a:b], writes[a:b], homes[a:b])
        start = stop
    multi.access_batch(np.array(pus), np.array(lines), np.array(writes), np.array(homes))
    expected = hierarchy_state(one_by_one)
    for hier in (one_by_one, per_run, cut, multi):
        assert hier.check_invariants() == []
        assert hierarchy_state(hier) == expected


@given(
    runs=st.lists(
        st.tuples(
            st.integers(0, 31),
            st.lists(
                st.tuples(st.integers(0, 700), st.booleans(), st.integers(0, 1)),
                max_size=40,
            ),
        ),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=40, deadline=None)
def test_batch_counts_are_the_batch_stats_delta(runs):
    """What ``access_batch_pu`` returns for a batch is what the batch added
    to the six ``CacheStats`` counters that the time model reads, for any
    stream of batches over the 32 PUs of the small-cache machine."""
    hier = CoherentHierarchy(small_cache_machine())
    for pu, accesses in runs:
        lines, writes, homes = ([a[i] for a in accesses] for i in range(3))
        before = hier.stats.as_dict()
        counts = hier.access_batch_pu(pu, lines, writes, homes)
        after = hier.stats.as_dict()
        assert counts._asdict() == {f: after[f] - before[f] for f in BatchCounts._fields}
    assert hier.check_invariants() == []


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
@given(
    span=st.sampled_from([2, 4, 8, 16, 32, 64]),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(st.integers(0, 298), st.integers(0, 3), st.integers(0, 3)),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=100, deadline=None)
def test_line_draws_are_rng_integers(span, seeds, calls):
    """A line index drawn as ``floor(span * float32 uniform)`` is the value
    of ``rng.integers(0, span, size=k)``, and leaves the generator in its
    state, 32-bit carry (``has_uint32``, ``uinteger``) included: over
    several threads, odd and even sizes, and float64 draws before and
    after each call."""
    got = [np.random.default_rng(seed) for seed in seeds]
    want = [np.random.default_rng(seed) for seed in seeds]
    n = len(seeds)
    bases = np.arange(1, n + 1, dtype=np.int64) << 20
    for k, before, after in calls:
        counts = [k + t for t in range(n)]
        for rng in (*got, *want):
            rng.random(before)
        vaddrs = Workload._addresses_in_region(
            bases, np.ones(n, dtype=np.int64), counts, got, line_span=span
        )
        expected = []
        for rng, count in zip(want, counts):
            rng.random(count)  # the page uniforms
            expected.append(rng.integers(0, span, size=count))
        lines = (vaddrs - np.repeat(bases, counts)) // CACHE_LINE_SIZE
        assert np.array_equal(lines, np.concatenate(expected))
        for rng in (*got, *want):
            rng.random(after)
        for a, b in zip(got, want):
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("span", [1, 3, 6, 48])
def test_line_draws_refuse_a_span_without_the_identity(span):
    """Only a power-of-two span of at least 2 draws as ``rng.integers``:
    ``integers(0, 1)`` draws nothing, and other spans reject words."""
    with pytest.raises(WorkloadError, match="power of two"):
        Workload._addresses_in_region(
            np.array([0]), np.array([1]), [4], [np.random.default_rng(0)], line_span=span
        )


class _ChannelWorkload(Workload):
    """A bare workload with given per-thread channels and private regions."""

    def __init__(self, channels, privates):
        super().__init__("channels", max(2, len(channels)))
        self._set_private(privates)
        self._set_channels(channels)

    def setup(self, address_space):
        raise NotImplementedError

    def generate_step(self, tids, n, now_ns, rngs):
        raise NotImplementedError

    def ground_truth(self, now_ns=None):
        raise NotImplementedError


def reference_addresses_in_region(region, n, rng, locality):
    """One thread's cold addresses in *region*, as the per-thread sampler drew
    them: ``n`` uniforms for the pages, then ``n`` line indices."""
    pages = max(1, region.size // PAGE_SIZE)
    page_idx = np.floor(pages * rng.random(n) ** locality).astype(np.int64)
    line_idx = rng.integers(0, 8, size=n)
    return region.base + page_idx * PAGE_SIZE + line_idx * CACHE_LINE_SIZE


def reference_mixed_cold(regions, probs, private, n, rng, shared_fraction, locality):
    """The cold-stream sampler as a loop: ``rng.choice`` with ``p``, then one
    ``_addresses_in_region`` per chosen channel, in channel order."""
    shared_mask = rng.random(n) < shared_fraction
    n_shared = int(shared_mask.sum())
    vaddrs = np.empty(n, dtype=np.int64)
    vaddrs[~shared_mask] = reference_addresses_in_region(
        private, n - n_shared, rng, locality
    )
    if n_shared:
        choice = rng.choice(len(regions), size=n_shared, p=probs)
        shared = np.empty(n_shared, dtype=np.int64)
        for r_idx in np.unique(choice):
            sel = choice == r_idx
            shared[sel] = reference_addresses_in_region(
                regions[r_idx], int(sel.sum()), rng, locality
            )
        vaddrs[shared_mask] = shared
    return vaddrs


@given(
    threads=st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.floats(0.01, 10.0), st.integers(1, 24)),
                min_size=1,
                max_size=12,
            ),
            st.integers(0, 300),
            st.integers(0, 2**32 - 1),
        ),
        min_size=1,
        max_size=4,
    ),
    reverse=st.booleans(),
    shared_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    locality=st.sampled_from([1.0, 1.2, 2.0]),
)
@settings(max_examples=60, deadline=None)
def test_channel_sampler_draws_as_the_choice_loop(
    threads, reverse, shared_fraction, locality
):
    """The table-driven sampler, over a step of several threads (each with
    its own channel table, batch size and generator, in either thread
    order), returns each thread's loop addresses and leaves each generator
    in the loop's state, for any channel weights and sizes."""
    space = AddressSpace(1 << 12)
    tables, privates = [], []
    for t, (channels, _, _) in enumerate(threads):
        regions = [
            space.mmap(f"t{t}c{i}", pages * PAGE_SIZE)
            for i, (_, pages) in enumerate(channels)
        ]
        weights = np.array([w for w, _ in channels])
        tables.append((regions, weights / weights.sum()))
        privates.append(space.mmap(f"t{t}private", 16 * PAGE_SIZE))
    while len(privates) < 2:  # a workload has at least two threads
        tables.append(tables[0])
        privates.append(privates[0])
    workload = _ChannelWorkload(tables, privates)
    tids = np.arange(len(threads))[:: -1 if reverse else 1]
    counts = [threads[t][1] for t in tids]
    rngs = [np.random.default_rng(threads[t][2]) for t in tids]
    got = workload._mixed_cold(tids, counts, rngs, shared_fraction, locality)
    start = 0
    for tid, count, rng in zip(tids, counts, rngs):
        reference_rng = np.random.default_rng(threads[tid][2])
        regions, probs = tables[tid]
        want = reference_mixed_cold(
            regions, probs, privates[tid], count, reference_rng, shared_fraction, locality
        )
        assert np.array_equal(got[start : start + count], want)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        start += count
    assert start == got.size
