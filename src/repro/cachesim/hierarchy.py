"""Coherent cache hierarchy: private L1/L2 per core, inclusive L3 per socket.

The L1/L2 are private to a physical **core** and shared by its SMT siblings —
this is exactly the paper's communication case (a): threads mapped to the two
hardware threads of one core communicate through the fast L1/L2.  A global
directory tracks, per line, the bitmask of cores holding it in their private
caches and the core owning it dirty (MESI ``M``).  The protocol follows
SandyBridge-EP semantics closely enough for the paper's metrics:

* inclusive L3 — a line cached privately on a socket is in that socket's L3;
  L3 evictions back-invalidate private copies;
* writes invalidate every other copy (private and remote-L3); writes to a
  line nobody else holds upgrade silently (``E`` -> ``M``);
* reads hitting dirty data in another private cache trigger a
  **cache-to-cache transaction** — intra-socket if the owner shares the L3,
  inter-socket (off-chip) otherwise;
* demand misses that no cache can serve go to DRAM, counted local/remote
  relative to the accessing PU's NUMA node.

Invariants (checked by :meth:`CoherentHierarchy.check_invariants`):

1. L1[c] is a subset of L2[c];
2. ``c in sharers[l]``  iff  ``l in L2[c]``;
3. a privately cached line is present in its socket's L3 (inclusion);
4. a dirty-owned line has exactly one private sharer and lives in no other
   socket's L3;
5. no cache set holds more lines than its cache's associativity.
"""

from __future__ import annotations

from itertools import groupby

from repro.cachesim.cache import SetAssocCache
from repro.cachesim.line import iter_set_bits
from repro.cachesim.stats import BatchCounts, CacheStats
from repro.machine.topology import Machine

NO_OWNER = -1


def _aslist(values) -> list:
    """Fast conversion of numpy arrays (or sequences) to Python lists."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)


class CoherentHierarchy:
    """MESI-coherent L1/L2/L3 hierarchy for one :class:`Machine`.

    Public entry points take **PU** ids (what the scheduler places threads
    on); internally coherence operates on the owning core.
    """

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        n_cores = machine.n_cores
        self.l1 = [SetAssocCache(machine.l1_params, f"L1.c{c}") for c in range(n_cores)]
        self.l2 = [SetAssocCache(machine.l2_params, f"L2.c{c}") for c in range(n_cores)]
        self.l3 = [
            SetAssocCache(machine.l3_params, f"L3.s{s}") for s in range(machine.n_sockets)
        ]
        #: line -> bitmask of cores holding it in L1 or L2
        self._sharers: dict[int, int] = {}
        #: line -> core owning it dirty (MESI M); absent if clean everywhere
        self._dirty_owner: dict[int, int] = {}
        self._core_of_pu = [machine.core_of(p) for p in range(machine.n_pus)]
        self._socket_of_core = [
            machine.socket_of(machine.pus_of_core(c)[0]) for c in range(n_cores)
        ]
        #: cores grouped per socket, as bitmasks, for fast same-socket tests
        self._socket_mask = [0] * machine.n_sockets
        for c in range(n_cores):
            self._socket_mask[self._socket_of_core[c]] |= 1 << c
        #: per socket, the sets of every other socket's L3 (remote probes)
        self._remote_l3_sets = [
            [other._sets for other in self.l3 if other is not cache] for cache in self.l3
        ]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # public access API (PU ids)
    # ------------------------------------------------------------------
    def access(self, pu: int, line: int, is_write: bool, home_node: int) -> None:
        """Simulate one memory access by *pu* to *line* homed at *home_node*."""
        self.access_batch_pu(pu, (line,), (is_write,), (home_node,))

    def access_batch(self, pus, lines, writes, home_nodes) -> None:
        """Simulate a sequence of accesses given as parallel arrays."""
        lines = _aslist(lines)
        writes = _aslist(writes)
        home_nodes = _aslist(home_nodes)
        start = 0
        for pu, run in groupby(_aslist(pus)):
            stop = start + sum(1 for _ in run)
            self.access_batch_pu(
                pu, lines[start:stop], writes[start:stop], home_nodes[start:stop]
            )
            start = stop

    def access_batch_pu(self, pu: int, lines, writes, home_nodes) -> BatchCounts:
        """Run one PU's accesses through the MESI protocol, in order.

        This loop is the protocol: the L1-hit, L2-hit and L2-miss paths
        (L3 lookup and install, the L2 victim, the L1 install) run inline
        on the core's L1/L2 sets, its socket's L3 sets and the directory
        dicts.  Only ownership transfers, invalidations and L3 victims call
        helpers.  Level counters are summed in locals and added to
        ``stats`` and to each cache's ``hits``/``misses``/``evictions``
        once per batch.  Returns the batch's counts that the time model
        reads.
        """
        core = self._core_of_pu[pu]
        socket = self._socket_of_core[core]
        l1 = self.l1[core]
        l2 = self.l2[core]
        l3 = self.l3[socket]
        l1_sets, l1_mask, l1_ways = l1._sets, l1._set_mask, l1.ways
        l2_sets, l2_mask, l2_ways = l2._sets, l2._set_mask, l2.ways
        l3_sets, l3_mask, l3_ways = l3._sets, l3._set_mask, l3.ways
        remote_l3 = self._remote_l3_sets[socket]
        sharers = self._sharers
        dirty_owner = self._dirty_owner
        bit = 1 << core
        others = ~bit
        acquire = self._acquire_ownership

        lines = _aslist(lines)
        l1_misses = l2_hits = l3_misses = 0
        c2c_intra = c2c_inter = dram_local = dram_remote = 0
        l1_evictions = l2_evictions = l3_evictions = 0
        for line, w, home in zip(lines, _aslist(writes), _aslist(home_nodes)):
            s1 = l1_sets[line & l1_mask]
            if line in s1:
                s1[line] = s1.pop(line)
                if w and dirty_owner.get(line) != core:
                    acquire(core, line)
                continue
            l1_misses += 1
            s2 = l2_sets[line & l2_mask]
            if line in s2:
                s2[line] = s2.pop(line)
                l2_hits += 1
                if len(s1) >= l1_ways:
                    del s1[next(iter(s1))]
                    l1_evictions += 1
                s1[line] = False
                if w and dirty_owner.get(line) != core:
                    acquire(core, line)
                continue

            # L2 miss (for a write, an RFO): the socket's L3, then another
            # socket or DRAM.  A dirty owner is never this core, since the
            # owner holds the line in its L2.  ``remote`` says whether
            # another socket's L3 holds the line (None: not probed), so a
            # write probes the remote L3s at most once.
            owner = dirty_owner.get(line, NO_OWNER)
            s3 = l3_sets[line & l3_mask]
            if line in s3:
                s3[line] = s3.pop(line)
                remote = None
                if owner != NO_OWNER:
                    # Dirty in a same-socket private cache (inclusion
                    # guarantees the owner is on this socket).
                    c2c_intra += 1
                    if w:
                        self._drop_owner_copies(owner, line)
                    else:
                        del dirty_owner[line]
                        s3[line] = True
            else:
                l3_misses += 1
                if owner != NO_OWNER:
                    # Dirty on the other socket: off-chip cache-to-cache.
                    # The owner's L3 holds the line (inclusion), and an
                    # invalidation that finds no copy changes nothing.
                    c2c_inter += 1
                    remote = True
                    if w:
                        self._drop_owner_copies(owner, line)
                    else:
                        del dirty_owner[line]
                        self.l3[self._socket_of_core[owner]].mark_dirty(line)
                else:
                    remote = False
                    for sets in remote_l3:
                        if line in sets[line & l3_mask]:
                            remote = True
                            break
                    if remote:
                        c2c_inter += 1
                    elif home == socket:
                        dram_local += 1
                    else:
                        dram_remote += 1
                if len(s3) >= l3_ways:
                    victim = next(iter(s3))
                    victim_dirty = s3.pop(victim)
                    l3_evictions += 1
                    self._evict_from_l3(socket, victim, victim_dirty)
                s3[line] = False
            if w:
                if remote or sharers.get(line, 0) & others:
                    self._invalidate_other_copies(core, line)
                elif remote is None:
                    for sets in remote_l3:
                        if line in sets[line & l3_mask]:
                            self._invalidate_other_copies(core, line)
                            break

            # Install into L2 (its victim leaves L1 and the directory, and
            # dirty data retreats into the inclusive L3), then into L1,
            # whose victims need no action: inclusion keeps their data in
            # L2 and the directory, not the L1 copy, tracks dirtiness.
            if len(s2) >= l2_ways:
                victim = next(iter(s2))
                del s2[victim]
                l2_evictions += 1
                l1_sets[victim & l1_mask].pop(victim, None)
                mask = sharers.get(victim, 0) & others
                if mask:
                    sharers[victim] = mask
                else:
                    sharers.pop(victim, None)
                if dirty_owner.get(victim) == core:
                    del dirty_owner[victim]
                    l3.mark_dirty(victim)
            s2[line] = False
            if len(s1) >= l1_ways:
                del s1[next(iter(s1))]
                l1_evictions += 1
            s1[line] = False
            if w:
                sharers[line] = bit
                dirty_owner[line] = core
                s3[line] = True
            else:
                sharers[line] = sharers.get(line, 0) | bit

        n = len(lines)
        l2_misses = l1_misses - l2_hits
        l3_hits = l2_misses - l3_misses
        stats = self.stats
        stats.l1_hits += n - l1_misses
        stats.l1_misses += l1_misses
        stats.l2_hits += l2_hits
        stats.l2_misses += l2_misses
        stats.l3_hits += l3_hits
        stats.l3_misses += l3_misses
        stats.c2c_intra += c2c_intra
        stats.c2c_inter += c2c_inter
        stats.dram_reads_local += dram_local
        stats.dram_reads_remote += dram_remote
        l1.hits += n - l1_misses
        l1.misses += l1_misses
        l1.evictions += l1_evictions
        l2.hits += l2_hits
        l2.misses += l2_misses
        l2.evictions += l2_evictions
        l3.hits += l3_hits
        l3.misses += l3_misses
        l3.evictions += l3_evictions
        return BatchCounts(l2_hits, l3_hits, c2c_intra, c2c_inter, dram_local, dram_remote)

    # ------------------------------------------------------------------
    # rare protocol paths (core ids)
    # ------------------------------------------------------------------
    def _evict_from_l3(self, socket: int, line: int, dirty: bool) -> None:
        """Handle an inclusive-L3 victim: back-invalidate the socket's cores."""
        mask = self._sharers.get(line, 0) & self._socket_mask[socket]
        owner = self._dirty_owner.get(line, NO_OWNER)
        for c in iter_set_bits(mask):
            self.l1[c].remove(line)
            self.l2[c].remove(line)
            self.stats.back_invalidations += 1
        rest = self._sharers.get(line, 0) & ~self._socket_mask[socket]
        if rest:
            self._sharers[line] = rest
        else:
            self._sharers.pop(line, None)
        if owner != NO_OWNER and self._socket_of_core[owner] == socket:
            del self._dirty_owner[line]
            dirty = True
        if dirty:
            self.stats.dram_writebacks += 1

    def _acquire_ownership(self, core: int, line: int) -> None:
        """Upgrade a resident clean/shared copy to M (hit path of a write)."""
        socket = self._socket_of_core[core]
        l3 = self.l3[socket]
        if self._sharers.get(line, 0) & ~(1 << core):
            self._invalidate_other_copies(core, line)
        else:
            index = line & l3._set_mask
            for sets in self._remote_l3_sets[socket]:
                if line in sets[index]:
                    self._invalidate_other_copies(core, line)
                    break
            else:
                self.stats.silent_upgrades += 1
        self._sharers[line] = 1 << core
        self._dirty_owner[line] = core
        l3.mark_dirty(line)

    def _drop_owner_copies(self, owner: int, line: int) -> None:
        """Remove the dirty owner's private copies (its data moved away)."""
        self.l1[owner].remove(line)
        self.l2[owner].remove(line)
        mask = self._sharers.get(line, 0) & ~(1 << owner)
        if mask:
            self._sharers[line] = mask
        else:
            self._sharers.pop(line, None)
        del self._dirty_owner[line]
        self.stats.invalidations += 1

    def _invalidate_other_copies(self, core: int, line: int) -> None:
        """Invalidate all other private copies and remote L3 copies, for a
        write by *core*.  The directory entry is left to the caller, which
        makes *core* the line's only sharer."""
        stats = self.stats
        mask = self._sharers.get(line, 0) & ~(1 << core)
        if mask:
            stats.invalidations += mask.bit_count()
            # every core's L1 (and L2) has one geometry, so one set index
            l1, l2 = self.l1, self.l2
            i1 = line & l1[core]._set_mask
            i2 = line & l2[core]._set_mask
            while mask:
                low = mask & -mask
                c = low.bit_length() - 1
                l1[c]._sets[i1].pop(line, None)
                l2[c]._sets[i2].pop(line, None)
                mask ^= low
        index = line & self.l3[0]._set_mask
        for sets in self._remote_l3_sets[self._socket_of_core[core]]:
            s3 = sets[index]
            if line in s3:
                stats.invalidations += 1
                if s3.pop(line):
                    stats.dram_writebacks += 1

    # ------------------------------------------------------------------
    # inspection / verification
    # ------------------------------------------------------------------
    def sharer_mask(self, line: int) -> int:
        """Current private-cache sharer bitmask of *line* (core bits)."""
        return self._sharers.get(line, 0)

    def dirty_owner(self, line: int) -> int:
        """Core owning *line* dirty, or -1."""
        return self._dirty_owner.get(line, NO_OWNER)

    def check_invariants(self) -> list[str]:
        """Return a list of invariant violations (empty when consistent)."""
        problems: list[str] = []
        n_cores = self.machine.n_cores
        presence = [set(self.l2[c].resident_lines()) for c in range(n_cores)]
        l1_presence = [set(self.l1[c].resident_lines()) for c in range(n_cores)]
        l3_presence = [set(cache.resident_lines()) for cache in self.l3]
        for c in range(n_cores):
            extra = l1_presence[c] - presence[c]
            if extra:
                problems.append(f"L1 of core{c} not subset of L2: {sorted(extra)[:4]}")
            s = self._socket_of_core[c]
            not_incl = presence[c] - l3_presence[s]
            if not_incl:
                problems.append(f"L2 of core{c} not in L3 s{s}: {sorted(not_incl)[:4]}")
        # directory vs presence
        for line in set(self._sharers):
            mask = self._sharers[line]
            actual = 0
            for c in range(n_cores):
                if line in presence[c]:
                    actual |= 1 << c
            if actual != mask:
                problems.append(
                    f"sharer mask mismatch line {line}: dir={mask:x} act={actual:x}"
                )
        for c in range(n_cores):
            for line in presence[c]:
                if not self._sharers.get(line, 0) & (1 << c):
                    problems.append(f"line {line} in L2 of core{c} but not in directory")
        for line, owner in self._dirty_owner.items():
            mask = self._sharers.get(line, 0)
            if mask != (1 << owner):
                problems.append(f"dirty line {line} owner {owner} has sharers {mask:x}")
            owner_socket = self._socket_of_core[owner]
            for s, pres in enumerate(l3_presence):
                if s != owner_socket and line in pres:
                    problems.append(f"dirty line {line} also present in L3 s{s}")
        for cache in (*self.l1, *self.l2, *self.l3):
            for index, lines in enumerate(cache._sets):
                if len(lines) > cache.ways:
                    problems.append(
                        f"{cache.name} set {index} holds {len(lines)} lines in {cache.ways} ways"
                    )
        return problems
