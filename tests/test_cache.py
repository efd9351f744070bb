"""Tests for the set-associative caches, driven through the MESI loop.

`CoherentHierarchy.access_batch_pu` is the only code that looks lines up,
installs them and picks victims, so LRU order and dirty victims are
checked there, on the small-cache copy of the paper's topology: 8-set
2-way L1s, 16-set 4-way L2s and 64-set 8-way L3s.  PU 0 runs on core 0
of socket 0.  Victims are read off each cache's ``resident_lines()``,
which lists every set oldest first, and its ``is_dirty`` flags.
"""

import numpy as np

from repro.cachesim.hierarchy import CoherentHierarchy
from tests.test_layer_pins import small_cache_machine


def run(lines, writes=None, pu=0):
    """A fresh small-cache hierarchy after PU *pu* accesses *lines*."""
    hier = CoherentHierarchy(small_cache_machine())
    access(hier, lines, writes, pu)
    return hier


def access(hier, lines, writes=None, pu=0):
    writes = [False] * len(lines) if writes is None else writes
    hier.access_batch_pu(pu, lines, writes, [0] * len(lines))


def l1_set(hier, index):
    """Core 0's L1 set *index*, oldest line first."""
    l1 = hier.l1[0]
    return [line for line in l1.resident_lines() if line % l1.num_sets == index]


class TestLookupInsert:
    def test_miss_then_hit(self):
        hier = run([5, 5])
        l1 = hier.l1[0]
        assert (l1.misses, l1.hits) == (1, 1)
        assert l1.contains(5)

    def test_contains_does_not_count(self):
        hier = run([5])
        l1 = hier.l1[0]
        assert l1.contains(5) and not l1.contains(6)
        assert (l1.misses, l1.hits) == (1, 0)

    def test_set_index_uses_low_bits(self):
        # 0, 8 and 16 share L1 set 0, so the third evicts the first ...
        hier = run([0, 8, 16])
        assert l1_set(hier, 0) == [8, 16]
        assert hier.l1[0].evictions == 1
        # ... while 1, 2 and 3 land in three sets
        hier = run([1, 2, 3])
        assert hier.l1[0].evictions == 0
        assert sorted(hier.l1[0].resident_lines()) == [1, 2, 3]


class TestEviction:
    def test_lru_victim_in_set(self):
        hier = run([0, 8, 0, 16])  # the second access to 0 refreshes it
        assert l1_set(hier, 0) == [0, 16]
        # inclusion: the L1 victim stays in the L2 and the directory
        assert hier.l2[0].contains(8)
        assert hier.sharer_mask(8) == 1

    def test_no_cross_set_interference(self):
        hier = run(list(range(8)))  # one line in each L1 set
        assert hier.l1[0].evictions == 0
        assert sorted(hier.l1[0].resident_lines()) == list(range(8))

    def test_eviction_carries_dirty_flag(self):
        # Nine lines of L3 set 0 (64 sets, 8 ways); the first is written.
        lines = [64 * k for k in range(9)]
        hier = run(lines, [True] + [False] * 8)
        l3 = hier.l3[0]
        assert [line for line in l3.resident_lines() if line % 64 == 0] == lines[1:]
        assert not l3.contains(0)
        assert hier.dirty_owner(0) == -1 and hier.sharer_mask(0) == 0
        assert hier.stats.dram_writebacks == 1
        # the same lines read only: a clean victim is dropped, not written
        clean = run(lines)
        assert not clean.l3[0].contains(0)
        assert clean.stats.dram_writebacks == 0

    def test_reinsert_refreshes_lru_and_or_dirty(self):
        # a write hit refreshes the line and makes this core its dirty owner
        hier = run([0, 8], [False, False])
        access(hier, [0], [True])
        assert l1_set(hier, 0) == [8, 0]
        assert hier.l3[0].is_dirty(0) and not hier.l3[0].is_dirty(8)
        assert hier.dirty_owner(0) == 0
        access(hier, [16])  # evicts 8, the least recently used
        assert l1_set(hier, 0) == [0, 16]
        assert hier.l3[0].is_dirty(0)
        # a later read hit refreshes the line and keeps it dirty
        access(hier, [0])
        assert l1_set(hier, 0) == [16, 0]
        assert hier.l3[0].is_dirty(0) and hier.dirty_owner(0) == 0

    def test_l2_victim_leaves_l1_and_directory(self):
        # 0, 16, 32, 48 and 64 share L2 set 0 (16 sets, 4 ways); 16 is
        # written, and the second access to 0 refreshes it in the L2
        hier = run([16, 0, 32, 48, 0, 64], [True] + [False] * 5)
        l2 = hier.l2[0]
        assert [line for line in l2.resident_lines() if line % 16 == 0] == [32, 48, 0, 64]
        assert not hier.l1[0].contains(16)
        assert hier.sharer_mask(16) == 0 and hier.dirty_owner(16) == -1
        # its dirty data retreats into the inclusive L3
        assert hier.l3[0].contains(16) and hier.l3[0].is_dirty(16)

    def test_eviction_counter(self):
        hier = run([0, 8, 16, 24])
        assert hier.l1[0].evictions == 2
        assert hier.l2[0].evictions == 0


class TestDirtyAndRemove:
    def test_mark_dirty(self):
        hier = run([3])
        l3 = hier.l3[0]
        assert not l3.is_dirty(3)
        l3.mark_dirty(3)
        assert l3.is_dirty(3)

    def test_mark_dirty_absent_is_noop(self):
        l3 = run([]).l3[0]
        l3.mark_dirty(3)
        assert not l3.contains(3)
        assert not l3.is_dirty(3)

    def test_remove_returns_dirty(self):
        hier = run([3], [True])
        l3 = hier.l3[0]
        assert l3.remove(3) is True
        assert l3.remove(3) is False
        assert not l3.contains(3)


class TestCapacity:
    def test_never_exceeds_capacity(self, rng):
        hier = CoherentHierarchy(small_cache_machine())
        for _ in range(20):
            pu = int(rng.integers(0, 32))
            lines = rng.integers(0, 10_000, size=50)
            hier.access_batch_pu(pu, lines, rng.random(50) < 0.3, np.zeros(50, dtype=int))
        for cache in (*hier.l1, *hier.l2, *hier.l3):
            per_set = np.bincount(
                np.array(cache.resident_lines(), dtype=int) % cache.num_sets,
                minlength=cache.num_sets,
            )
            assert per_set.max() <= cache.ways, cache.name
        assert hier.check_invariants() == []

    def test_resident_lines_lists_everything(self):
        hier = run([1, 2, 3])
        for cache in (hier.l1[0], hier.l2[0], hier.l3[0]):
            assert sorted(cache.resident_lines()) == [1, 2, 3]
