"""Tests for the flat-stored page table."""

import numpy as np
import pytest

from repro.errors import AddressError, PageFaultError
from repro.mem.pagetable import NO_FRAME, PageTable


@pytest.fixture
def table():
    return PageTable(capacity=128)


class TestMapping:
    def test_starts_empty(self, table):
        assert table.n_populated == 0
        assert not table.is_present(5)
        assert table.frame_of(5) == NO_FRAME

    def test_map_sets_all_state(self, table):
        table.map_page(7, frame=42, home_node=1)
        e = table.entry(7)
        assert e.present and e.populated
        assert e.frame == 42 and e.home_node == 1

    def test_double_map_rejected(self, table):
        table.map_page(7, 42, 0)
        with pytest.raises(PageFaultError):
            table.map_page(7, 43, 0)

    def test_capacity_enforced(self, table):
        with pytest.raises(AddressError):
            table.is_present(128)

    def test_zero_capacity_rejected(self):
        with pytest.raises(AddressError):
            PageTable(0)


class TestPresentBit:
    def test_clear_present_counts_only_eligible(self, table):
        table.map_page(1, 10, 0)
        table.map_page(2, 11, 0)
        cleared = table.clear_present(np.array([1, 2, 3]))  # 3 unpopulated
        assert cleared == 2
        assert not table.is_present(1) and not table.is_present(2)

    def test_clear_twice_counts_once(self, table):
        table.map_page(1, 10, 0)
        assert table.clear_present(1) == 1
        assert table.clear_present(1) == 0

    def test_restore_present(self, table):
        table.map_page(1, 10, 0)
        table.clear_present(1)
        table.restore_present(1)
        assert table.is_present(1)

    def test_restore_unpopulated_rejected(self, table):
        with pytest.raises(PageFaultError):
            table.restore_present(1)

    def test_present_mask_vectorised(self, table):
        table.map_page(1, 10, 0)
        table.map_page(3, 11, 0)
        mask = table.present_mask(np.array([0, 1, 2, 3]))
        assert mask.tolist() == [False, True, False, True]

    def test_clear_present_out_of_range(self, table):
        with pytest.raises(AddressError):
            table.clear_present(500)

    def test_present_vpns_sorted(self, table):
        for vpn in (9, 3, 5):
            table.map_page(vpn, vpn, 0)
        assert table.present_vpns().tolist() == [3, 5, 9]


class TestAccessedBits:
    def test_mark_and_age(self, table):
        table.map_page(1, 10, 0)
        table.mark_accessed(1)
        assert table.accessed_present_vpns().tolist() == [1]
        table.age_accessed()
        assert table.accessed_present_vpns().size == 0

    def test_accessed_requires_present(self, table):
        table.map_page(1, 10, 0)
        table.mark_accessed_batch(np.array([1]))
        table.clear_present(1)
        assert table.accessed_present_vpns().size == 0

    def test_dirty_via_mark_accessed(self, table):
        table.map_page(1, 10, 0)
        table.mark_accessed(1, dirty=True)
        assert table.entry(1).dirty


class TestWalk:
    def test_walk_counts(self, table):
        table.map_page(1, 10, 0)
        before = table.walk_count
        table.walk(1)
        assert table.walk_count == before + 1

    def test_walk_returns_radix(self, table):
        assert table.walk(5) == (0, 0, 0, 5)


class TestConsistency:
    def test_fresh_table_consistent(self, table):
        assert table.consistency_ok()

    def test_consistent_after_random_ops(self, table, rng):
        populated = set()
        for _ in range(300):
            vpn = int(rng.integers(0, 128))
            op = rng.integers(0, 4)
            if op == 0 and vpn not in populated:
                table.map_page(vpn, vpn + 1000, int(rng.integers(0, 2)))
                populated.add(vpn)
            elif op == 1 and vpn in populated and not table.is_present(vpn):
                table.restore_present(vpn)
            elif op == 2:
                table.clear_present(vpn)
            elif op == 3 and vpn in populated:
                table.mark_accessed(vpn, dirty=bool(rng.integers(0, 2)))
        assert table.consistency_ok()
        assert table.n_populated == len(populated)
