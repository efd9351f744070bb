"""Tests for the SPCD sharing table and Linux hash function."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hashtable
from repro.core.hashtable import (
    _EMPTY_REGION,
    _INITIAL_ROWS,
    DEFAULT_TABLE_SIZE,
    GOLDEN_RATIO_64,
    ArrayShareTable,
    hash_64,
)
from repro.errors import ConfigurationError


class DictShareTable:
    """The oracle: the paper's table as ``{slot: (region, {tid: last_ns})}``.

    A region hashing to an occupied slot overwrites its entry (a collision).
    """

    def __init__(self, size):
        self.size = size
        self.slots = {}
        self.collisions = self.inserts = 0

    def get_or_create(self, region):
        """The sharers of *region*'s entry, inserted if the slot holds another."""
        slot = hash_64(region) % self.size
        held = self.slots.get(slot)
        if held is None or held[0] != region:
            self.collisions += held is not None
            self.inserts += 1
            held = self.slots[slot] = (region, {})
        return held[1]

    def live(self):
        """``{region: {tid: last_ns}}`` of the live entries."""
        return dict(self.slots.values())

    def __len__(self):
        return len(self.slots)

    def shared_region_count(self):
        return sum(len(sharers) >= 2 for _, sharers in self.slots.values())


def live_entries(table):
    """``{region: {tid: last_ns}}`` of an :class:`ArrayShareTable`, read from
    its region vector and, through its row index, its biased timestamp rows."""
    entries = {}
    for slot in np.flatnonzero(table._region != _EMPTY_REGION):
        stamps = table._last[table._row[slot]]
        entries[int(table._region[slot])] = {
            int(t): int(stamps[t]) - 1 for t in np.flatnonzero(stamps)
        }
    return entries


def replay_in_fault_order(table, regions, tid, now_ns, window_ns):
    """The oracle: one ``get_or_create`` and window scan per fault, in order.

    Returns ``(events, windowed_out)``, with one ``(region, partner)`` pair
    per communication event.
    """
    events, windowed_out = [], 0
    for region in np.asarray(regions).tolist():
        sharers = table.get_or_create(region)
        for other, last_ns in sharers.items():
            if other == tid:
                continue
            if now_ns - last_ns <= window_ns:
                events.append((region, other))
            else:
                windowed_out += 1
        sharers[tid] = now_ns
    return events, windowed_out


class TestHash64:
    def test_full_width_default(self):
        assert hash_64(1) == GOLDEN_RATIO_64

    def test_bits_selects_top_bits(self):
        full = hash_64(12345)
        assert hash_64(12345, 16) == full >> 48

    def test_stays_in_range(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= hash_64(value, 20) < 2**20

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigurationError):
            hash_64(1, 0)
        with pytest.raises(ConfigurationError):
            hash_64(1, 65)

    def test_spreads_sequential_keys(self):
        """Golden-ratio hashing must scatter consecutive region ids."""
        slots = {hash_64(i, 16) for i in range(1000)}
        assert len(slots) > 990


class TestShareTable:
    """The sharing-table contract the paper states, on :class:`ArrayShareTable`."""

    def test_not_shared_with_one_toucher(self):
        t = ArrayShareTable(100, 2)
        t.touch(1, 0, 100, 1000)
        assert live_entries(t) == {1: {0: 100}}
        assert t.shared_region_count() == 0

    def test_shared_with_two(self):
        t = ArrayShareTable(100, 2)
        t.touch(1, 0, 100, 1000)
        t.touch(1, 1, 200, 1000)
        assert live_entries(t) == {1: {0: 100, 1: 200}}
        assert t.shared_region_count() == 1

    def test_touch_updates_timestamp(self):
        t = ArrayShareTable(100, 2)
        t.touch(1, 0, 100, 1000)
        assert t.touch(1, 0, 300, 1000) == ([], 0)
        assert live_entries(t) == {1: {0: 300}}
        assert t.shared_region_count() == 0

    def test_collision_overwrites(self):
        """Paper: on hash collision the previous entry is overwritten."""
        t = ArrayShareTable(1, 2)  # everything collides
        t.touch(1, 0, 1, 10)
        t.touch(2, 1, 2, 10)
        assert live_entries(t) == {2: {1: 2}}
        assert (t.collisions, t.inserts) == (1, 2)
        assert t.touch(1, 1, 3, 10) == ([], 0)  # region 1 starts over

    def test_same_region_not_a_collision(self):
        t = ArrayShareTable(1, 2)
        t.touch(1, 0, 1, 10)
        assert t.touch(1, 1, 2, 10) == ([0], 0)
        assert (t.collisions, t.inserts) == (0, 1)

    def test_shared_region_count(self):
        t = ArrayShareTable(100, 2)
        t.touch(1, 0, 1, 10)
        t.touch(2, 0, 1, 10)
        t.touch(2, 1, 2, 10)
        assert t.shared_region_count() == 1
        assert len(t) == 2

    def test_default_size_matches_paper(self):
        assert DEFAULT_TABLE_SIZE == 256_000
        assert ArrayShareTable().size == DEFAULT_TABLE_SIZE

    def test_rejects_zero_size(self):
        with pytest.raises(ConfigurationError):
            ArrayShareTable(0)
        with pytest.raises(ConfigurationError):
            ArrayShareTable(8, 0)

    @pytest.mark.parametrize(
        "size, n_threads", [(2.5, 2), (True, 2), ("1000", 2), (100, 2.0), (100, True)]
    )
    def test_rejects_a_size_that_is_not_an_int(self, size, n_threads):
        """Each used to escape as numpy's untyped TypeError."""
        with pytest.raises(ConfigurationError, match="must be an integer"):
            ArrayShareTable(size, n_threads)

    @pytest.mark.parametrize(
        "size, n_threads", [(2**63, 2), (2**64, 2), (100, 2**63), (100, 2**64)]
    )
    def test_rejects_a_count_that_does_not_fit_int64(self, size, n_threads):
        """Each used to escape as numpy's untyped ``ValueError: Maximum
        allowed dimension exceeded``."""
        with pytest.raises(ConfigurationError, match="64-bit"):
            ArrayShareTable(size, n_threads)

    @pytest.mark.parametrize("size, n_threads", [(2**62, 2), (100, 2**62)])
    def test_rejects_a_table_past_the_address_space(self, size, n_threads):
        """numpy refuses these byte counts before allocating; its untyped
        ``ValueError: array is too big`` used to escape."""
        with pytest.raises(ConfigurationError, match="too large to allocate"):
            ArrayShareTable(size, n_threads)

    def test_low_collision_rate_at_paper_scale(self):
        """256k slots covering 1 GiB of 4 KiB pages: few collisions."""
        t = ArrayShareTable(DEFAULT_TABLE_SIZE)
        t.touch_batch(np.arange(50_000), 0, 0, 10)
        assert t.collisions / 50_000 < 0.12

    @pytest.mark.parametrize("path", ["touch_batch", "touch"])
    def test_rows_follow_occupancy_at_paper_scale(self, path):
        """3,000 regions in a paper-sized 32-thread table hold rows for the
        occupied slots only (a dense matrix of 256,000 rows is 62.5 MiB)."""
        t = ArrayShareTable(DEFAULT_TABLE_SIZE, 32)
        regions = np.arange(3_000, dtype=np.int64)
        if path == "touch_batch":
            t.touch_batch(regions, 0, 0, 10)
        else:
            for region in regions.tolist():
                t.touch(region, 0, 0, 10)
        occupied = int(np.count_nonzero(t._region != _EMPTY_REGION))
        assert len(t) == occupied > 2_900
        assert t._last.shape[0] <= max(_INITIAL_ROWS, 2 * occupied)
        assert t._last.nbytes < 1 << 20


# ---------------------------------------------------------------------------
# ArrayShareTable.touch_batch against a dict-table replay in fault order
# ---------------------------------------------------------------------------
N_THREADS = 4
WINDOW_NS = 10


def _assert_same_state(fast, oracle):
    assert (fast.collisions, fast.inserts) == (oracle.collisions, oracle.inserts)
    assert live_entries(fast) == oracle.live()
    # one row per occupied slot: an insert into an occupied slot reuses its row
    occupied = fast._region != _EMPTY_REGION
    assert sorted(fast._row[occupied].tolist()) == list(range(len(oracle)))
    assert len(fast) == len(oracle)


def _touch_both(fast, oracle, regions, tid, now_ns, window_ns=WINDOW_NS):
    """Feed one batch to both tables and assert they agree on everything."""
    partners, windowed_out = fast.touch_batch(
        np.asarray(regions, dtype=np.int64), tid, now_ns, window_ns
    )
    events, want_windowed_out = replay_in_fault_order(oracle, regions, tid, now_ns, window_ns)
    assert sorted(partners.tolist()) == sorted(j for _, j in events)
    assert windowed_out == want_windowed_out
    _assert_same_state(fast, oracle)
    return partners, windowed_out


def _touch_each(fast, oracle, regions, tid, now_ns, window_ns=WINDOW_NS):
    """Feed a batch to both tables one region at a time (the scalar path)."""
    for region in regions:
        partners, windowed_out = fast.touch(region, tid, now_ns, window_ns)
        events, want_windowed_out = replay_in_fault_order(
            oracle, [region], tid, now_ns, window_ns
        )
        assert sorted(partners) == sorted(j for _, j in events)
        assert windowed_out == want_windowed_out
    _assert_same_state(fast, oracle)


def _same_slot_pair(size):
    """Two distinct regions that hash to one slot of a *size*-slot table."""
    a = 1
    b = next(r for r in range(a + 1, 10_000) if hash_64(r) % size == hash_64(a) % size)
    return a, b


@settings(max_examples=150, deadline=None)
@given(
    size=st.sampled_from([1, 3, 7, 61]),
    # a row store starting at one or two rows grows inside vectorised
    # batches and on scalar inserts
    initial_rows=st.sampled_from([1, 2, _INITIAL_ROWS]),
    batches=st.lists(
        st.tuples(
            st.integers(0, N_THREADS - 1),
            # time advances in steps of 5 ns against a 10 ns window, so
            # sharers land inside, exactly at and beyond the window edge
            st.integers(0, 3),
            # a pool of 12 regions: batches repeat regions and slots
            st.lists(st.integers(0, 11), max_size=40),
            # True: the batch goes through the scalar touch, one at a time
            st.booleans(),
        ),
        max_size=12,
    ),
)
def test_touch_batch_matches_fault_order_replay(size, initial_rows, batches):
    with patch.object(hashtable, "_INITIAL_ROWS", initial_rows):
        fast = ArrayShareTable(size, N_THREADS)
    oracle = DictShareTable(size)
    now_ns = 0
    for tid, step, regions, scalar in batches:
        now_ns += 5 * step
        (_touch_each if scalar else _touch_both)(fast, oracle, regions, tid, now_ns)
        assert fast._last.shape[0] <= max(min(initial_rows, size), 2 * len(oracle))


class TestArrayShareTableBatch:
    def test_many_repeats_of_one_region(self):
        """Every repeat of a known region emits the slot's partners."""
        fast, oracle = ArrayShareTable(7, N_THREADS), DictShareTable(7)
        _touch_both(fast, oracle, [5], 1, 0)
        _touch_both(fast, oracle, [5], 2, 0)
        partners, _ = _touch_both(fast, oracle, [5] * 200, 0, 1)
        assert sorted(partners.tolist()) == [1] * 200 + [2] * 200

    def test_repeats_of_a_new_region_emit_nothing(self):
        fast, oracle = ArrayShareTable(7, N_THREADS), DictShareTable(7)
        _touch_both(fast, oracle, [5], 1, 0)
        partners, _ = _touch_both(fast, oracle, [6] * 50, 0, 1)
        assert partners.size == 0

    @pytest.mark.parametrize("size", [1, 3, 7])
    def test_regions_alternating_on_one_slot(self, size):
        """A, B, A on one slot: A's partners, then two overwrites."""
        a, b = _same_slot_pair(size)
        fast, oracle = ArrayShareTable(size, N_THREADS), DictShareTable(size)
        _touch_both(fast, oracle, [a], 1, 0)
        partners, _ = _touch_both(fast, oracle, [a, b, a], 0, 1)
        assert partners.tolist() == [1]
        assert (fast.collisions, fast.inserts) == (2, 3)
        _touch_both(fast, oracle, [b, b, a, a, b, a], 2, 2)
        _touch_both(fast, oracle, [a, a, a], 3, 3)

    def test_empty_batch(self):
        fast, oracle = ArrayShareTable(7, N_THREADS), DictShareTable(7)
        _touch_both(fast, oracle, [3], 1, 0)
        partners, windowed_out = _touch_both(fast, oracle, [], 0, 1)
        assert partners.size == 0 and windowed_out == 0
        assert (fast.collisions, fast.inserts) == (0, 1)

    def test_sharer_exactly_window_old_is_a_partner(self):
        fast, oracle = ArrayShareTable(7, N_THREADS), DictShareTable(7)
        _touch_both(fast, oracle, [3, 4], 1, 0)
        partners, windowed_out = _touch_both(fast, oracle, [3, 3], 0, WINDOW_NS)
        assert partners.tolist() == [1, 1] and windowed_out == 0
        partners, windowed_out = _touch_both(fast, oracle, [4, 4], 0, WINDOW_NS + 1)
        assert partners.size == 0 and windowed_out == 2
