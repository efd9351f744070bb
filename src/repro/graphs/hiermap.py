"""Scalable hierarchical process mapping (Schulz/Woydt-style).

The paper's mapper pairs threads by Edmonds maximum-weight perfect matching
— exact, but O(n^3) per grouping level over a matrix padded to the
machine's PU count: one decision on a 512-PU machine takes seconds
(``benchmarks/results/BENCH_mapping.json``), hopeless at 1024 PUs.
:class:`ScalableHierarchicalMapper` replaces the matching with the
shared-memory hierarchical *partitioning* approach of Schulz & Woydt
(PAPERS.md): recursively bisect the communication graph down the machine's
topology tree (sockets -> cores -> SMT siblings), refining each cut with a
bounded Kernighan-Lin pass.  Per decision the work is
``O(depth * (n log n + nnz))`` — tens of milliseconds at n = 1024 on a
power-law matrix — at a small comm-cost premium over Edmonds (pinned at
<= 10% on every n <= 32 Fig. 7-suite matrix by ``tests/test_hiermap.py``).

Determinism: no randomness anywhere.  Bisection candidates are evaluated
in a fixed order (current-placement split, identity split, greedy growth
from the heaviest and lightest vertices), ties keep the earlier candidate,
and all remaining ties break toward the lowest thread id — the same matrix
always yields the same mapping, and exact-tie patterns cannot flip between
calls and migrate threads for nothing.

Both engines expose the same ``map(matrix, current=None)`` /``calls``
surface and share :func:`repro.core.mapping.lay_out_socket_groups` for the
final slot assignment, so stickiness-vs-current tie-breaking behaves
identically whichever algorithm a policy selects
(``repro.core.mapping.make_mapper``).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.commmatrix import CommunicationMatrix
from repro.core.mapping import _check_current, lay_out_socket_groups
from repro.errors import MappingError
from repro.machine.topology import Machine

__all__ = ["ScalableHierarchicalMapper"]

#: vertices per side considered for a Kernighan-Lin swap each round
_TOP_K = 8


class ScalableHierarchicalMapper:
    """Thread -> PU mapping by recursive bisection over the topology tree.

    Drop-in alternative to :class:`repro.core.mapping.HierarchicalMapper`
    for machines of 128 or more PUs; constructed via
    :func:`repro.core.mapping.make_mapper` with ``algorithm="hierarchical"``.
    """

    def __init__(
        self,
        machine: Machine,
        *,
        stickiness: float = 0.2,
        max_refine_swaps: int = 64,
    ) -> None:
        self.machine = machine
        #: with a current placement and stickiness > 0, the split induced by
        #: the threads' current sockets is the first bisection candidate and
        #: keeps ties — the analogue of the Edmonds mapper's bonus weights
        self.stickiness = stickiness
        #: Kernighan-Lin swap budget per bisection (bounds refinement cost)
        self.max_refine_swaps = max_refine_swaps
        self.calls = 0

    # -- public -------------------------------------------------------------
    def map(
        self,
        matrix: CommunicationMatrix | np.ndarray,
        current: np.ndarray | None = None,
    ) -> np.ndarray:
        """Thread -> PU assignment maximising nearby communication.

        Same contract as :meth:`HierarchicalMapper.map`: threads that do not
        fill the machine are padded with zero-communication virtual slots,
        and *current* breaks placement-equivalence ties toward the existing
        placement.  Like the Edmonds mapper, it refuses a non-finite cell.
        """
        self.calls += 1
        machine = self.machine
        n_pus = machine.n_pus
        if isinstance(matrix, CommunicationMatrix):
            n_threads = matrix.n
        else:
            matrix = np.asarray(matrix, dtype=float)
            n_threads = matrix.shape[0]
            if not np.isfinite(matrix).all():
                raise MappingError("communication must be finite")
        if n_threads > n_pus:
            raise MappingError(f"{n_threads} threads exceed the machine's {n_pus} PUs")
        current = _check_current(current, n_threads)
        adj = self._adjacency(matrix, n_pus)

        smt = machine.smt_per_core
        per_socket = machine.cores_per_socket * smt
        nodes = list(range(n_pus))

        seed_order = None
        if current is not None and self.stickiness > 0 and machine.n_sockets > 1:
            seed_order = self._current_socket_order(current, n_threads, n_pus)
        socket_parts = self._partition_k(
            adj, nodes, machine.n_sockets, per_socket, seed_order=seed_order
        )

        socket_groups = []
        for part_adj, part in socket_parts:
            core_parts = self._partition_k(part_adj, part, machine.cores_per_socket, smt)
            groups = [tuple(sorted(cp)) for _, cp in core_parts]
            groups.sort(key=lambda g: g[0])
            socket_groups.append(groups)
        socket_groups.sort(key=lambda cores: cores[0][0])

        pu_of_slot = lay_out_socket_groups(machine, socket_groups, current, n_threads)
        if np.any(pu_of_slot[:n_threads] < 0):
            raise MappingError("mapping left threads unassigned")
        return pu_of_slot[:n_threads]

    # -- adjacency ----------------------------------------------------------
    @staticmethod
    def _adjacency(
        matrix: CommunicationMatrix | np.ndarray, n_pus: int
    ) -> dict[int, dict[int, float]]:
        """Per-slot ``{partner: weight}`` dicts (virtual slots stay empty)."""
        adj: dict[int, dict[int, float]] = {i: {} for i in range(n_pus)}
        comm = matrix.matrix if isinstance(matrix, CommunicationMatrix) else matrix
        rows, cols = np.nonzero(comm)
        vals = comm[rows, cols]
        for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            if i != j:
                adj[i][j] = v
        return adj

    def _current_socket_order(
        self, current: np.ndarray, n_threads: int, n_pus: int
    ) -> list[int]:
        """Node order that reproduces the current socket split when prefixed.

        Real threads sorted by (current socket, thread id), virtual slots
        last — taking the first ``size_a`` of this order as side A keeps
        threads on their current socket wherever the pattern permits.
        """
        machine = self.machine
        order = sorted(
            range(n_threads), key=lambda t: (machine.socket_of(int(current[t])), t)
        )
        order.extend(range(n_threads, n_pus))
        return order

    # -- recursive partitioning ---------------------------------------------
    def _partition_k(
        self,
        adj: dict[int, dict[int, float]],
        nodes: list[int],
        k: int,
        part_size: int,
        seed_order: list[int] | None = None,
    ) -> list[tuple[dict[int, dict[int, float]], list[int]]]:
        """Split *nodes* into *k* parts of *part_size* by recursive bisection.

        Returns ``(sub_adjacency, part)`` pairs; *adj* must already be
        restricted to *nodes*.  Restricting the adjacency as the recursion
        descends is what keeps the total work ``O(depth * nnz)``: cut edges
        drop out of the subproblems instead of being re-scanned (and
        re-skipped) at every deeper level.
        """
        if len(nodes) != k * part_size:
            raise MappingError(
                f"cannot split {len(nodes)} slots into {k} parts of {part_size}"
            )
        if k == 1:
            return [(adj, list(nodes))]
        k1 = k // 2
        a, b = self._bisect(adj, nodes, k1 * part_size, seed_order=seed_order)
        set_a = set(a)
        adj_a = {v: {u: w for u, w in adj[v].items() if u in set_a} for v in a}
        adj_b = {v: {u: w for u, w in adj[v].items() if u not in set_a} for v in b}
        # The current-placement hint is consumed by the top split; deeper
        # levels follow the pattern (lay_out breaks the remaining ties).
        return self._partition_k(adj_a, a, k1, part_size) + self._partition_k(
            adj_b, b, k - k1, part_size
        )

    def _bisect(
        self,
        adj: dict[int, dict[int, float]],
        nodes: list[int],
        size_a: int,
        seed_order: list[int] | None = None,
    ) -> tuple[list[int], list[int]]:
        """Split *nodes* into sides of ``size_a`` / rest, minimising the cut."""
        candidates: list[list[int]] = []
        if seed_order is not None:
            members = set(nodes)
            candidates.append([v for v in seed_order if v in members])
        ident = sorted(nodes)
        candidates.append(ident)
        degree = {v: sum(adj[v].values()) for v in nodes}
        heavy = min(ident, key=lambda v: (-degree[v], v))
        light = min(ident, key=lambda v: (degree[v], v))
        candidates.append(self._grow_order(adj, ident, heavy))
        if light != heavy and len(ident) <= 128:
            # The light-seed start only ever wins on small, sparse parts
            # (isolated pair patterns); at scale it just doubles the cost.
            candidates.append(self._grow_order(adj, ident, light))

        best_side: dict[int, int] | None = None
        best_cut = 0.0
        for order in candidates:
            side = {v: (0 if rank < size_a else 1) for rank, v in enumerate(order)}
            cut = self._cut(adj, side)
            if best_side is None or cut < best_cut:
                best_side, best_cut = side, cut
        assert best_side is not None
        if best_cut > 0.0:
            self._refine(adj, best_side)
        a = sorted(v for v, s in best_side.items() if s == 0)
        b = sorted(v for v, s in best_side.items() if s == 1)
        return a, b

    @staticmethod
    def _grow_order(
        adj: dict[int, dict[int, float]],
        ident: list[int],
        seed: int,
    ) -> list[int]:
        """Greedy graph-growing order: repeatedly take the unvisited vertex
        best connected to the visited set (ties and disconnected vertices
        resolve to the lowest id).  Lazy-deletion heap keeps this
        ``O((n + nnz) log n)``."""
        conn: dict[int, float] = {}
        visited: set[int] = set()
        order: list[int] = []
        heap: list[tuple[float, int]] = []
        cursor = 0  # sweeps `ident` for the lowest-id disconnected vertex

        def visit(v: int) -> None:
            visited.add(v)
            order.append(v)
            for u, w in adj[v].items():
                if u not in visited:
                    c = conn.get(u, 0.0) + w
                    conn[u] = c
                    heapq.heappush(heap, (-c, u))

        visit(seed)
        while len(order) < len(ident):
            pick = None
            while heap:
                negc, u = heap[0]
                if u in visited or conn.get(u, 0.0) != -negc:
                    heapq.heappop(heap)  # stale entry
                    continue
                pick = u
                heapq.heappop(heap)
                break
            if pick is None:
                while ident[cursor] in visited:
                    cursor += 1
                pick = ident[cursor]
            visit(pick)
        return order

    @staticmethod
    def _cut(adj: dict[int, dict[int, float]], side: dict[int, int]) -> float:
        """Total weight crossing the two sides (each edge counted once)."""
        total = 0.0
        for v, s in side.items():
            if s == 0:  # count each cross edge from its A endpoint
                for u, w in adj[v].items():
                    if side[u]:
                        total += w
        return total

    def _refine(self, adj: dict[int, dict[int, float]], side: dict[int, int]) -> None:
        """Bounded Kernighan-Lin: balanced pairwise swaps while the cut drops.

        Each round scans both sides for the ``_TOP_K`` highest-gain vertices
        (gain D = external - internal connectivity, maintained incrementally),
        evaluates the k^2 candidate swaps, and applies the best if it strictly
        improves the cut.  At most ``max_refine_swaps`` rounds.
        """
        conn_own: dict[int, float] = {}
        conn_other: dict[int, float] = {}
        for v, s in side.items():
            own = other = 0.0
            for u, w in adj[v].items():
                if side[u] == s:
                    own += w
                else:
                    other += w
            conn_own[v] = own
            conn_other[v] = other

        def gain_of(v: int) -> float:
            return conn_other[v] - conn_own[v]

        for _ in range(self.max_refine_swaps):
            side_a = [v for v, s in side.items() if s == 0]
            side_b = [v for v, s in side.items() if s == 1]
            if not side_a or not side_b:
                return
            top_a = heapq.nsmallest(_TOP_K, side_a, key=lambda v: (-gain_of(v), v))
            top_b = heapq.nsmallest(_TOP_K, side_b, key=lambda v: (-gain_of(v), v))
            best = None
            best_gain = 0.0
            for a in top_a:
                for b in top_b:
                    g = gain_of(a) + gain_of(b) - 2.0 * adj[a].get(b, 0.0)
                    if g > best_gain:
                        best, best_gain = (a, b), g
            if best is None:
                return
            a, b = best
            for x in (a, b):  # both flips pending; old sides still in `side`
                sx = side[x]
                for u, w in adj[x].items():
                    if u == a or u == b:
                        continue
                    if side[u] == sx:
                        conn_own[u] -= w
                        conn_other[u] += w
                    else:
                        conn_other[u] -= w
                        conn_own[u] += w
            side[a], side[b] = 1, 0
            for x in (a, b):
                own = other = 0.0
                sx = side[x]
                for u, w in adj[x].items():
                    if side[u] == sx:
                        own += w
                    else:
                        other += w
                conn_own[x] = own
                conn_other[x] = other
