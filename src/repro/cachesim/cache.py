"""A set-associative cache with true LRU replacement.

Stores only *presence* (plus a dirty flag for L3 write-back accounting);
coherence state lives in the directory (:mod:`repro.cachesim.hierarchy`).
Each set is a plain ``dict`` whose insertion order is the LRU order (oldest
first) and whose values are the dirty flags: a hit pops the line and
re-inserts it (``s[line] = s.pop(line)``), and the victim is the first key,
``next(iter(s))``.  ``dict.popitem()`` is never used: it is LIFO and would
evict the most recently used line.  Because every value is a bool, the
cyclic garbage collector never tracks a set (DESIGN §7.1).

Lookups, installs and victims happen only in
:meth:`~repro.cachesim.hierarchy.CoherentHierarchy.access_batch_pu`, which
works on the sets directly; this class holds them and offers the
protocol's rare paths (presence, invalidation, dirty flags) and inspection.
"""

from __future__ import annotations

from repro.machine.cache_params import CacheParams

__all__ = ["SetAssocCache"]


class SetAssocCache:
    """One cache instance (an L1, L2 or L3).

    Lines are identified by their global line id; the set index is derived
    from its low bits.  ``hits``, ``misses`` and ``evictions`` are added by
    the hierarchy's access loop once per batch.
    """

    __slots__ = (
        "name", "num_sets", "ways", "_set_mask", "_sets",
        "hits", "misses", "evictions",
    )

    def __init__(self, params: CacheParams, name: str | None = None) -> None:
        self.name = name or params.name
        self.num_sets = params.num_sets
        self.ways = params.associativity
        self._set_mask = self.num_sets - 1
        self._sets: list[dict[int, bool]] = [{} for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def contains(self, line: int) -> bool:
        """Presence check without LRU update or hit/miss accounting."""
        return line in self._sets[line & self._set_mask]

    def remove(self, line: int) -> bool:
        """Invalidate *line* if present; returns its dirty flag (False if absent)."""
        return self._sets[line & self._set_mask].pop(line, False)

    def mark_dirty(self, line: int) -> None:
        """Set the dirty flag of a resident line (no-op if absent)."""
        s = self._sets[line & self._set_mask]
        if line in s:
            s[line] = True

    def is_dirty(self, line: int) -> bool:
        """Dirty flag of a resident line (False if absent)."""
        return self._sets[line & self._set_mask].get(line, False)

    def resident_lines(self) -> list[int]:
        """All resident line ids, set by set in index order and each set in
        LRU order, oldest first (test/inspection helper)."""
        out: list[int] = []
        for s in self._sets:
            out.extend(s.keys())
        return out
