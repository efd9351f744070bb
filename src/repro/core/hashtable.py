"""The SPCD sharing table (paper Sec. III-B1, Figure 4).

A fixed-size hash table keyed by memory-region id (the faulting address
divided by the detection granularity).  Each entry stores the region id, the
set of threads that faulted on it and the time stamp of each thread's last
access.  As in the paper:

* the size is fixed at construction (default 256,000 elements);
* the hash function is Linux's ``hash_64`` (golden-ratio multiplication);
* on a collision the previous entry is **overwritten** — the paper accepts
  this accuracy loss to keep the fault-path cost constant.

:class:`ArrayShareTable` holds the slot space in NumPy arrays (a per-slot
region id and row index) and the last-access timestamps in a row store
that holds one row per occupied slot, so its memory follows occupancy, not
the slot count: a 200-step Fig. 8 SP cell occupies ~2,300 of the 256,000
slots.  A dense ``(size, n_threads)`` matrix would not stay cheap by
leaving rows untouched: numpy advises every allocation of at least 4 MiB
for transparent huge pages, so on a host whose THP mode is ``madvise`` a
few hundred scattered writes make most of it resident.  A batch touch
handles a whole fault batch in one exact run-based pass, and a scalar
touch handles single faults.  It is the one table the simulator and the
service run.  Its emitted events, ``collisions``/``inserts`` counters and
live entries equal those of a per-fault replay over a plain dict table,
the oracle that ``tests/test_hashtable.py`` holds it to.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.errors import ConfigurationError

#: Linux's GOLDEN_RATIO_64 (include/linux/hash.h since v4.7; v3.2 used the
#: equivalent GOLDEN_RATIO_PRIME_64 multiply — same construction).
GOLDEN_RATIO_64 = 0x61C8864680B583EB
_MASK64 = (1 << 64) - 1

#: Table size used in the paper's evaluation (covers 1 GiB at 4 KiB pages).
DEFAULT_TABLE_SIZE = 256_000


def hash_64(value: int, bits: int = 64) -> int:
    """Linux kernel ``hash_64``: multiply by the golden ratio, keep top bits."""
    if not 0 < bits <= 64:
        raise ConfigurationError("bits must be in (0, 64]")
    return ((value * GOLDEN_RATIO_64) & _MASK64) >> (64 - bits)


def hash_64_batch(values: np.ndarray, bits: int = 64) -> np.ndarray:
    """Vectorised :func:`hash_64` over a non-negative int vector (uint64 out)."""
    if not 0 < bits <= 64:
        raise ConfigurationError("bits must be in (0, 64]")
    hashed = np.asarray(values).astype(np.uint64)
    hashed *= np.uint64(GOLDEN_RATIO_64)  # mod 2^64
    if bits < 64:
        hashed >>= np.uint64(64 - bits)
    return hashed


#: sentinel region id for an empty ArrayShareTable slot (region ids are >= 0)
_EMPTY_REGION = -1

#: timestamp rows an ArrayShareTable starts with; the row store doubles
#: whenever a new slot finds it full, up to one row per slot
_INITIAL_ROWS = 100


def _check_count(value: object, what: str) -> int:
    """*value* as a positive int64; a float, a bool or a string is refused."""
    if not isinstance(value, Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{what} must be an integer, not {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{what} must be positive")
    if value >= 1 << 63:
        raise ConfigurationError(f"{what} must fit in a 64-bit integer, not {value}")
    return int(value)


def _changes(values: np.ndarray) -> np.ndarray:
    """The bounds of *values*' runs of equal elements: run ``k`` is
    ``values[bounds[k]:bounds[k + 1]]``, and the last bound is
    ``values.size``."""
    change = np.empty(values.size + 1, dtype=bool)
    change[0] = change[-1] = True
    np.not_equal(values[1:], values[:-1], out=change[1:-1])
    return change.nonzero()[0]


class ArrayShareTable:
    """Array-backed, overwrite-on-collision sharing table.

    State is a per-slot region id (``-1`` = empty), a per-slot row index,
    and a row store of last-access timestamps, one ``n_threads`` row per
    occupied slot, storing ``timestamp + 1`` with ``0`` as the "never
    touched" sentinel.  The first insert into an empty slot takes the next
    unused row; the store starts at :data:`_INITIAL_ROWS` rows and doubles
    when it runs out, never past ``size``.  A slot is never emptied, so its
    row is never freed; a collision clears and reuses the slot's row.  The
    number of used rows is therefore the number of occupied slots.

    :meth:`touch_batch` takes a whole fault batch in one run-based pass:
    slots are computed with a vectorised ``hash_64``, the members are grouped
    by slot, and each slot's runs of equal region are resolved at once (see
    :meth:`touch_batch_at`), however often a slot repeats within the batch.
    ``collisions``, ``inserts`` and the live entries are those of a replay
    of the batch in fault order, and the returned events are the same
    multiset as that replay's.  :meth:`touch` is the scalar path for one
    fault.
    """

    def __init__(self, size: int = DEFAULT_TABLE_SIZE, n_threads: int = 1) -> None:
        self.size = _check_count(size, "table size")
        self.n_threads = _check_count(n_threads, "thread count")
        try:
            self._region = np.full(self.size, _EMPTY_REGION, dtype=np.int64)
            #: the row of each occupied slot (meaningless for an empty slot)
            self._row = np.zeros(self.size, dtype=np.intp)
            #: biased timestamps: value v != 0 means last access at time v - 1
            self._last = np.zeros(
                (min(_INITIAL_ROWS, self.size), self.n_threads), dtype=np.int64
            )
        except ValueError as exc:
            # numpy refuses a byte count past the address space before it
            # allocates; a table that is merely large raises MemoryError
            raise ConfigurationError(
                f"a table of {self.size} slots and {self.n_threads} threads is "
                f"too large to allocate: {exc}"
            ) from exc
        #: rows handed out so far: rows ``[0, _used)`` belong to occupied slots
        self._used = 0
        #: every thread id, the partner of each column
        self._threads = np.arange(self.n_threads)
        self.collisions = 0
        self.inserts = 0

    def _take_rows(self, n: int) -> int:
        """Hand out *n* unused rows, growing the store; returns the first."""
        first = self._used
        self._used += n
        capacity = self._last.shape[0]
        if self._used > capacity:
            while capacity < self._used:
                capacity *= 2
            grown = np.zeros((min(capacity, self.size), self.n_threads), dtype=np.int64)
            grown[:first] = self._last[:first]
            self._last = grown
        return first

    # -- hashing ------------------------------------------------------------
    def slots_of(self, regions: np.ndarray) -> np.ndarray:
        """Vectorised slot computation (``hash_64(region) % size``)."""
        slots = hash_64_batch(regions)
        slots %= np.uint64(self.size)
        return slots.view(np.int64)  # every slot is below size < 2**63

    def _slot_of(self, region: int) -> int:
        # hash_64(region) inlined (bits=64): called once per fault.
        return ((region * GOLDEN_RATIO_64) & _MASK64) % self.size

    # -- batch touch (the fault path) -----------------------------------------
    def touch_batch(
        self, regions: np.ndarray, tid: int, now_ns: int, window_ns: int
    ) -> tuple[np.ndarray, int]:
        """Record a fault batch by *tid* at *now_ns*; returns the comm events.

        Returns ``(partners, windowed_out)``: one entry in *partners* per
        communication event (the other thread's id, possibly repeated —
        exactly the events a fault-order replay emits one at a time), and
        the count of sharer timestamps that fell outside the temporal
        window.
        """
        regions = np.asarray(regions, dtype=np.int64)
        return self.touch_batch_at(self.slots_of(regions), regions, tid, now_ns, window_ns)

    def touch_batch_at(
        self,
        slots: np.ndarray,
        regions: np.ndarray,
        tid: int,
        now_ns: int,
        window_ns: int,
    ) -> tuple[np.ndarray, int]:
        """:meth:`touch_batch` with the slot of each region precomputed.

        *slots* is ``slots_of(regions)``; returns ``(partners,
        windowed_out)`` as :meth:`touch_batch` does.

        One run-based pass, exact against a fault-order replay.  The
        members are grouped by slot and split into runs of equal region.
        Two slots never share a region, so one region change marks every
        run, slot changes included.  Each slot's runs then resolve at once:

        * if the slot already holds the first run's region, every member of
          that run emits the slot's in-window partners and its windowed-out
          count; the members share *tid* and *now_ns* and write only column
          *tid*, so each emits the same set;
        * otherwise the run's first member inserts (a collision if the slot
          was occupied) and the run emits nothing;
        * each later run is one collision and one insert and emits nothing.

        Fault order within a slot matters only when the slot sees two
        regions.  So the grouping sort need not be stable, and only a batch
        in which some slot holds two or more runs is grouped again with a
        stable sort and takes the per-slot step (first run, last run, later
        runs); in every other batch the runs are the slots.  A vacant slot
        takes the next unused row.  The slot ends holding the last run's
        region; its row is cleared if anything was inserted, and column
        *tid* is set to ``now_ns + 1``.
        """
        regions = np.asarray(regions, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return np.empty(0, dtype=np.int64), 0
        # unstable: a slot's members keep fault order only if needed below
        order = slots.argsort()
        s, r = slots[order], regions[order]
        bounds = _changes(r)
        starts = bounds[:-1]
        run_slot = s[starts]
        n_runs = run_slot.size
        if np.count_nonzero(run_slot[1:] != run_slot[:-1]) < n_runs - 1:
            # some slot sees two regions, so group again in fault order;
            # a slot meets its first run's region and keeps its last run's,
            # and each later run overwrites
            order = slots.argsort(kind="stable")
            s, r = slots[order], regions[order]
            bounds = _changes(r)
            starts = bounds[:-1]
            run_slot = s[starts]
            n_runs = run_slot.size
            slot_bounds = _changes(run_slot)
            first, last = slot_bounds[:-1], slot_bounds[1:] - 1
            batch_slots = run_slot[first]
            met, kept = r[starts[first]], r[starts[last]]
            repeats = bounds[first + 1] - starts[first]
            overwritten = last > first
        else:
            batch_slots = run_slot
            met = kept = r[starts]
            repeats = bounds[1:] - starts
        n_later = n_runs - batch_slots.size

        current = self._region[batch_slots]
        miss = current != met
        n_miss = int(np.count_nonzero(miss))
        rows = self._row[batch_slots]
        n_new = 0
        if n_miss:
            # region -1 matches no run, so every vacant slot is a miss
            vacant = current == _EMPTY_REGION
            n_new = int(np.count_nonzero(vacant))
            if n_new:
                # each vacant slot takes the next unused (all-zero) row
                start = self._take_rows(n_new)
                rows[vacant] = np.arange(start, start + n_new)
                self._row[batch_slots] = rows
        self.collisions += n_miss - n_new + n_later
        self.inserts += n_miss + n_later

        partners = np.empty(0, dtype=np.int64)
        windowed_out = 0
        if n_miss < batch_slots.size:
            # each member of a hit slot's first run emits the slot's partners
            hit = ~miss
            repeats = repeats[hit]
            stamps = self._last.take(rows[hit], axis=0)
            stamps[:, tid] = 0
            # a stored stamp is >= 1, so the bound also drops untouched columns
            in_window = stamps >= max(now_ns + 1 - window_ns, 1)
            partners = self._threads.repeat(repeats @ in_window)
            if np.count_nonzero(stamps) > np.count_nonzero(in_window):
                # some sharer was last seen before the window
                windowed_out = int((repeats @ (stamps != 0)).sum()) - partners.size

        if n_miss or n_later:
            if n_later:
                miss |= overwritten
            self._region[batch_slots] = kept
            self._last[rows[miss]] = 0
        self._last[rows, tid] = now_ns + 1
        return partners, windowed_out

    def touch(
        self, region: int, tid: int, now_ns: int, window_ns: int
    ) -> tuple[list[int], int]:
        """Record one fault by *tid* on *region*; returns its comm events.

        The scalar path for one fault, which the detector's small-batch pass
        calls per fault; returns ``(partners, windowed_out)`` as
        :meth:`touch_batch` does for a one-region batch.
        """
        slot = self._slot_of(region)
        biased = now_ns + 1
        held = self._region[slot]
        if held != region:
            if held == _EMPTY_REGION:
                row = self._row[slot] = self._take_rows(1)
            else:
                self.collisions += 1
                row = self._row[slot]
                self._last[row] = 0
            self._region[slot] = region
            self.inserts += 1
            self._last[row, tid] = biased
            return [], 0
        row = self._row[slot]
        partners: list[int] = []
        windowed_out = 0
        for j, stamp in enumerate(self._last[row].tolist()):
            if stamp == 0 or j == tid:
                continue
            if biased - stamp <= window_ns:
                partners.append(j)
            else:
                windowed_out += 1
        self._last[row, tid] = biased
        return partners, windowed_out

    def __len__(self) -> int:
        return self._used

    def shared_region_count(self) -> int:
        """Number of currently tracked regions with >= 2 sharers."""
        sharers = np.count_nonzero(self._last[: self._used], axis=1)
        return int(np.count_nonzero(sharers >= 2))
