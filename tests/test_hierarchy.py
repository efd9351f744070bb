"""Tests for the MESI-coherent cache hierarchy."""

import dataclasses

import pytest

from repro.cachesim.hierarchy import NO_OWNER, CoherentHierarchy
from repro.cachesim.line import iter_set_bits, lowest_set_bit, popcount
from repro.cachesim.stats import CacheStats
from repro.machine.topology import build_machine


@pytest.fixture
def hier(small_machine):
    """Hierarchy on a 2-socket x 2-core x 2-SMT machine (4 cores)."""
    return CoherentHierarchy(small_machine)


# PU layout on small_machine: cores 0,1 on socket 0; cores 2,3 on socket 1.
# PU i (i<4) is core i's first context; PU i+4 its SMT sibling.
PU_C0, PU_C1, PU_C2 = 0, 1, 2
SMT_OF_C0 = 4


class TestBitHelpers:
    def test_popcount(self):
        assert popcount(0b1011) == 3

    def test_lowest_set_bit(self):
        assert lowest_set_bit(0b1000) == 3
        assert lowest_set_bit(0) == -1

    def test_iter_set_bits(self):
        assert list(iter_set_bits(0b10101)) == [0, 2, 4]


class TestReadPath:
    def test_first_read_goes_to_dram(self, hier):
        hier.access(PU_C0, 100, False, 0)
        s = hier.stats
        assert s.dram_reads_local == 1
        assert s.l1_misses == s.l2_misses == s.l3_misses == 1

    def test_second_read_hits_l1(self, hier):
        hier.access(PU_C0, 100, False, 0)
        hier.access(PU_C0, 100, False, 0)
        assert hier.stats.l1_hits == 1

    def test_smt_sibling_hits_shared_l1(self, hier):
        """Case (a): SMT siblings share the core's private caches."""
        hier.access(PU_C0, 100, False, 0)
        hier.access(SMT_OF_C0, 100, False, 0)
        assert hier.stats.l1_hits == 1
        assert hier.stats.c2c_total == 0

    def test_same_socket_clean_read_hits_l3(self, hier):
        hier.access(PU_C0, 100, False, 0)
        hier.access(PU_C1, 100, False, 0)
        s = hier.stats
        assert s.l3_hits == 1
        assert s.c2c_total == 0  # clean data comes from the L3, not a cache

    def test_remote_dram_counted(self, hier):
        hier.access(PU_C0, 100, False, 1)  # home node 1, pu on socket 0
        assert hier.stats.dram_reads_remote == 1

    def test_cross_socket_clean_copy_is_c2c_inter(self, hier):
        hier.access(PU_C0, 100, False, 0)
        hier.access(PU_C2, 100, False, 0)  # socket 1 pulls from socket 0 L3
        assert hier.stats.c2c_inter == 1


class TestWritePath:
    def test_write_makes_owner(self, hier):
        hier.access(PU_C0, 100, True, 0)
        assert hier.dirty_owner(100) == 0

    def test_silent_upgrade(self, hier):
        hier.access(PU_C0, 100, False, 0)
        hier.access(PU_C0, 100, True, 0)
        assert hier.stats.silent_upgrades == 1
        assert hier.stats.invalidations == 0

    def test_write_invalidates_sharers(self, hier):
        hier.access(PU_C0, 100, False, 0)
        hier.access(PU_C1, 100, False, 0)
        hier.access(PU_C0, 100, True, 0)
        assert hier.stats.invalidations >= 1
        assert hier.sharer_mask(100) == 1  # only core 0

    def test_read_of_dirty_same_socket_is_c2c_intra(self, hier):
        hier.access(PU_C0, 100, True, 0)
        hier.access(PU_C1, 100, False, 0)
        s = hier.stats
        assert s.c2c_intra == 1 and s.c2c_inter == 0
        assert hier.dirty_owner(100) == NO_OWNER  # downgraded to shared

    def test_read_of_dirty_cross_socket_is_c2c_inter(self, hier):
        hier.access(PU_C0, 100, True, 0)
        hier.access(PU_C2, 100, False, 0)
        assert hier.stats.c2c_inter == 1

    def test_write_after_remote_write_moves_ownership(self, hier):
        hier.access(PU_C0, 100, True, 0)
        hier.access(PU_C2, 100, True, 0)
        assert hier.dirty_owner(100) == 2
        assert hier.sharer_mask(100) == 1 << 2

    def test_ping_pong_generates_c2c_per_round(self, hier):
        hier.access(PU_C0, 100, True, 0)
        for _ in range(5):
            hier.access(PU_C2, 100, True, 0)
            hier.access(PU_C0, 100, True, 0)
        assert hier.stats.c2c_inter == 10


class TestInvariants:
    def test_clean_after_simple_traffic(self, hier):
        for line in range(50):
            hier.access(PU_C0, line, line % 3 == 0, 0)
            hier.access(PU_C2, line, line % 5 == 0, 1)
        assert hier.check_invariants() == []

    def test_invariants_after_random_storm(self, small_machine, rng):
        hier = CoherentHierarchy(small_machine)
        n_pus = small_machine.n_pus
        for _ in range(6000):
            pu = int(rng.integers(0, n_pus))
            line = int(rng.integers(0, 600))
            hier.access(pu, line, bool(rng.integers(0, 2)), int(rng.integers(0, 2)))
        assert hier.check_invariants() == []

    def test_invariants_under_tiny_caches(self, rng):
        """Small caches force constant evictions and back-invalidations."""
        from repro.machine.cache_params import CacheParams
        from repro.units import KIB

        tiny = build_machine(
            2, 2, 2,
            l1=CacheParams("L1", 1 * KIB, 2, 64, 2.0, 1),
            l2=CacheParams("L2", 2 * KIB, 2, 64, 6.0, 2),
            l3=CacheParams("L3", 4 * KIB, 4, 64, 15.0, 3),
        )
        hier = CoherentHierarchy(tiny)
        for _ in range(4000):
            pu = int(rng.integers(0, tiny.n_pus))
            line = int(rng.integers(0, 300))
            hier.access(pu, line, bool(rng.integers(0, 2)), int(rng.integers(0, 2)))
        assert hier.check_invariants() == []
        assert hier.stats.back_invalidations > 0  # tiny L3 must back-invalidate

    def test_reports_an_overfull_set(self, hier):
        """Invariant 5: a set never holds more lines than its ways.  One
        more clean line than the L3 has ways, written into one set by hand
        (no private copy, so invariants 1-4 still hold), is the only
        problem reported."""
        l3 = hier.l3[0]
        for k in range(l3.ways + 1):
            l3._sets[0][k * l3.num_sets] = False
        assert hier.check_invariants() == [
            f"{l3.name} set 0 holds {l3.ways + 1} lines in {l3.ways} ways"
        ]


class TestBatch:
    def test_access_batch_equivalent_to_loop(self, small_machine):
        import numpy as np

        h1 = CoherentHierarchy(small_machine)
        h2 = CoherentHierarchy(small_machine)
        lines = np.array([1, 2, 1, 3, 2, 1])
        writes = np.array([False, True, False, True, False, True])
        homes = np.array([0, 0, 1, 1, 0, 0])
        for line, w, home in zip(lines, writes, homes):
            h1.access(2, int(line), bool(w), int(home))
        h2.access_batch_pu(2, lines, writes, homes)
        assert h1.stats.as_dict() == h2.stats.as_dict()

    def test_access_batch_multi_pu(self, small_machine):
        import numpy as np

        h = CoherentHierarchy(small_machine)
        h.access_batch(np.array([0, 2]), np.array([9, 9]), np.array([True, True]), np.array([0, 0]))
        assert h.stats.c2c_inter == 1


def test_snapshot_matches_dataclass_field_order():
    """`CacheStats.snapshot` must track the dataclass field order exactly."""
    stats = CacheStats(**{
        f.name: i + 1 for i, f in enumerate(dataclasses.fields(CacheStats))
    })
    assert stats.snapshot() == tuple(
        getattr(stats, f.name) for f in dataclasses.fields(CacheStats)
    )
