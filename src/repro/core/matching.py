"""Maximum-weight (perfect) matching on complete weighted graphs.

The thread-mapping algorithm (paper Sec. IV-B) models threads as vertices and
communication amounts as edge weights, then extracts the pairing of maximum
total communication — the *maximum weight perfect matching* problem, solvable
in polynomial time by Edmonds' blossom algorithm [15].

:func:`max_weight_matching` below is a from-scratch implementation of the
classic O(n^3) formulation by Galil ("Efficient algorithms for finding
maximum matching in graphs", 1986), following the well-known primal-dual
staging (the same formulation underlying ``networkx``'s implementation, which
our tests cross-validate against).  :func:`max_weight_perfect_matching`
specialises it to complete graphs with an even number of vertices, where a
perfect matching always exists and maximum-cardinality mode yields it.

Two engines implement the identical algorithm:

* :func:`_blossom_reference` — the original pure-Python loops, kept as the
  differential-testing reference.
* :func:`_blossom_array` — an adjacency-array rewrite whose hot scans (the
  per-vertex slack scan of the queue drain, the best-edge recomputation when
  a blossom forms, and the dual-adjustment delta search) run as numpy bulk
  operations.  Every comparison is evaluated on the same float64 values in
  the same order-with-ties semantics (first minimum wins, strict-``<``
  replacement), so the two engines return *bit-identical* ``mate`` arrays —
  ``tests/test_matching_kernels.py`` pins this on random integer matrices
  including degenerate all-ties inputs.

:func:`max_weight_matching` dispatches on graph size: tiny graphs stay on
the reference loops (lower constant factor), everything else takes the
array engine.

A cheap O(n^2 log n) :func:`greedy_matching` is provided for the ablation
study (bench E16) and as a fallback for very large thread counts.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import MatchingError

__all__ = [
    "greedy_matching",
    "matching_weight",
    "max_weight_matching",
    "max_weight_perfect_matching",
]


#: the smallest vertex count at which the numpy engine beat the pure-Python
#: one in every round of an alternating timing on complete integer graphs
#: (n = 48..128; DESIGN.md §7.4); below it the reference engine is faster
_ARRAY_MIN_VERTICES = 112


def max_weight_matching(
    edges: Sequence[tuple[int, int, float]], maxcardinality: bool = False
) -> list[int]:
    """Maximum-weight matching of a general graph (blossom algorithm).

    Args:
        edges: ``(i, j, weight)`` triples with ``i != j``; vertices are the
            integers appearing in the triples (dense ids recommended).
        maxcardinality: if True, only maximum-cardinality matchings are
            considered (among them, the heaviest is returned).

    Returns:
        ``mate`` array: ``mate[v]`` is the vertex matched to *v*, or -1.
    """
    if not edges:
        return []
    nvertex = 1 + max(max(i, j) for (i, j, _w) in edges)
    if nvertex >= _ARRAY_MIN_VERTICES:
        ei = np.fromiter((e[0] for e in edges), dtype=np.int64, count=len(edges))
        ej = np.fromiter((e[1] for e in edges), dtype=np.int64, count=len(edges))
        ew = np.fromiter((e[2] for e in edges), dtype=np.float64, count=len(edges))
        return _blossom_array(ei, ej, ew, maxcardinality)
    return _blossom_reference(edges, maxcardinality)


def _blossom_reference(
    edges: Sequence[tuple[int, int, float]], maxcardinality: bool = False
) -> list[int]:
    """Pure-Python blossom loops (the differential-testing reference)."""
    if not edges:
        return []
    nedge = len(edges)
    nvertex = 0
    for (i, j, w) in edges:
        if i < 0 or j < 0 or i == j:
            raise MatchingError(f"invalid edge ({i}, {j})")
        if i >= nvertex:
            nvertex = i + 1
        if j >= nvertex:
            nvertex = j + 1

    maxweight = max(0, max(w for (_i, _j, w) in edges))

    # Edge endpoints: endpoint[p] is the vertex at endpoint p, where edge k
    # has endpoints 2k (its i side) and 2k+1 (its j side).
    endpoint = [edges[p // 2][p % 2] for p in range(2 * nedge)]
    # neighbend[v]: remote endpoints of edges incident to v.
    neighbend: list[list[int]] = [[] for _ in range(nvertex)]
    for k, (i, j, _w) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)

    mate = nvertex * [-1]
    # label: 0 free, 1 S-vertex/blossom, 2 T-vertex/blossom (5 marks scanning)
    label = (2 * nvertex) * [0]
    labelend = (2 * nvertex) * [-1]
    inblossom = list(range(nvertex))
    blossomparent = (2 * nvertex) * [-1]
    blossombase = list(range(nvertex)) + nvertex * [-1]
    blossomchilds: list[list[int] | None] = (2 * nvertex) * [None]
    blossomendps: list[list[int] | None] = (2 * nvertex) * [None]
    bestedge = (2 * nvertex) * [-1]
    blossombestedges: list[list[int] | None] = (2 * nvertex) * [None]
    unusedblossoms = list(range(nvertex, 2 * nvertex))
    dualvar = nvertex * [maxweight] + nvertex * [0]
    allowedge = nedge * [False]
    queue: list[int] = []

    def slack(k: int) -> float:
        (i, j, wt) = edges[k]
        return dualvar[i] + dualvar[j] - 2 * wt

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            for t in blossomchilds[b]:  # type: ignore[union-attr]
                if t < nvertex:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(blossom_leaves(b))
        elif t == 2:
            base = blossombase[b]
            assert mate[base] >= 0
            assign_label(endpoint[mate[base]], 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w to find a common ancestor (new blossom base)."""
        path = []
        base = -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            assert labelend[b] == mate[blossombase[b]]
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[b]]
                b = inblossom[v]
                assert label[b] == 2
                assert labelend[b] >= 0
                v = endpoint[labelend[b]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        """Construct a new blossom with the given base through edge k."""
        (v, w, _wt) = edges[k]
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomendps[b] = endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(labelend[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labelend[bv] == mate[blossombase[bv]]
            )
            assert labelend[bv] >= 0
            v = endpoint[labelend[bv]]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(labelend[bw] ^ 1)
            assert label[bw] == 2 or (
                label[bw] == 1 and labelend[bw] == mate[blossombase[bw]]
            )
            assert labelend[bw] >= 0
            w = endpoint[labelend[bw]]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0
        for v in blossom_leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Recompute best-edge lists of the new blossom.
        bestedgeto = (2 * nvertex) * [-1]
        for bv in path:
            if blossombestedges[bv] is None:
                nblists = [
                    [p // 2 for p in neighbend[leaf]] for leaf in blossom_leaves(bv)
                ]
            else:
                nblists = [blossombestedges[bv]]  # type: ignore[list-item]
            for nblist in nblists:
                for k2 in nblist:
                    (i, j, _wt2) = edges[k2]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (
                        bj != b
                        and label[bj] == 1
                        and (bestedgeto[bj] == -1 or slack(k2) < slack(bestedgeto[bj]))
                    ):
                        bestedgeto[bj] = k2
            blossombestedges[bv] = None
            bestedge[bv] = -1
        blossombestedges[b] = [k2 for k2 in bestedgeto if k2 != -1]
        bestedge[b] = -1
        for k2 in blossombestedges[b]:  # type: ignore[union-attr]
            if bestedge[b] == -1 or slack(k2) < slack(bestedge[b]):
                bestedge[b] = k2

    def expand_blossom(b: int, endstage: bool) -> None:
        """Undo a blossom whose dual variable reached zero."""
        for s in blossomchilds[b]:  # type: ignore[union-attr]
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in blossom_leaves(s):
                    inblossom[v] = s
        if (not endstage) and label[b] == 2:
            assert labelend[b] >= 0
            entrychild = inblossom[endpoint[labelend[b] ^ 1]]
            j = blossomchilds[b].index(entrychild)  # type: ignore[union-attr]
            if j & 1:
                j -= len(blossomchilds[b])  # type: ignore[arg-type]
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[
                    endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]  # type: ignore[index]
                ] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True  # type: ignore[index]
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick  # type: ignore[index]
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]  # type: ignore[index]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:  # type: ignore[index]
                bv = blossomchilds[b][j]  # type: ignore[index]
                if label[bv] == 1:
                    j += jstep
                    continue
                for v in blossom_leaves(bv):
                    if label[v] != 0:
                        break
                if label[v] != 0:
                    assert label[v] == 2
                    assert inblossom[v] == bv
                    label[v] = 0
                    label[endpoint[mate[blossombase[bv]]]] = 0
                    assign_label(v, 2, labelend[v])
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        """Swap matched/unmatched edges along the path through blossom b to v."""
        t = v
        while blossomparent[t] != b:
            t = blossomparent[t]
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)  # type: ignore[union-attr]
        if i & 1:
            j -= len(blossomchilds[b])  # type: ignore[arg-type]
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]  # type: ignore[index]
            p = blossomendps[b][j - endptrick] ^ endptrick  # type: ignore[index]
            if t >= nvertex:
                augment_blossom(t, endpoint[p])
            j += jstep
            t = blossomchilds[b][j]  # type: ignore[index]
            if t >= nvertex:
                augment_blossom(t, endpoint[p ^ 1])
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]  # type: ignore[index]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]  # type: ignore[index]
        blossombase[b] = blossombase[blossomchilds[b][0]]  # type: ignore[index]
        assert blossombase[b] == v

    def augment_matching(k: int) -> None:
        """Flip matching along the augmenting path through edge k."""
        (v, w, _wt) = edges[k]
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert labelend[bs] == mate[blossombase[bs]]
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = endpoint[labelend[bs]]
                bt = inblossom[t]
                assert label[bt] == 2
                assert labelend[bt] >= 0
                s = endpoint[labelend[bt]]
                j = endpoint[labelend[bt] ^ 1]
                assert blossombase[bt] == t
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    # Main loop: one stage per augmentation.
    for _t in range(nvertex):
        label[:] = (2 * nvertex) * [0]
        bestedge[:] = (2 * nvertex) * [-1]
        for i in range(nvertex, 2 * nvertex):
            blossombestedges[i] = None
        allowedge[:] = nedge * [False]
        del queue[:]
        for v in range(nvertex):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                for p in neighbend[v]:
                    k = p // 2
                    w = endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowedge[k]:
                        kslack = slack(k)
                        if kslack <= 0:
                            allowedge[k] = True
                    if allowedge[k]:
                        if label[inblossom[w]] == 0:
                            assign_label(w, 2, p ^ 1)
                        elif label[inblossom[w]] == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            assert label[inblossom[w]] == 2
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k
            if augmented:
                break

            # No augmenting path found; adjust dual variables.
            deltatype = -1
            delta = deltaedge = deltablossom = None
            if not maxcardinality:
                deltatype = 1
                delta = min(dualvar[:nvertex])
            for v in range(nvertex):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in range(2 * nvertex):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    kslack = slack(bestedge[b])
                    d = kslack / 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in range(nvertex, 2 * nvertex):
                if (
                    blossombase[b] >= 0
                    and blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or dualvar[b] < delta)
                ):
                    delta = dualvar[b]
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                # No further progress possible (maxcardinality deadlock).
                assert maxcardinality
                deltatype = 1
                delta = max(0, min(dualvar[:nvertex]))

            for v in range(nvertex):
                lab = label[inblossom[v]]
                if lab == 1:
                    dualvar[v] -= delta
                elif lab == 2:
                    dualvar[v] += delta
            for b in range(nvertex, 2 * nvertex):
                if blossombase[b] >= 0 and blossomparent[b] == -1:
                    if label[b] == 1:
                        dualvar[b] += delta
                    elif label[b] == 2:
                        dualvar[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                allowedge[deltaedge] = True
                (i, j, _wt) = edges[deltaedge]
                if label[inblossom[i]] == 0:
                    i, j = j, i
                assert label[inblossom[i]] == 1
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                (i, j, _wt) = edges[deltaedge]
                assert label[inblossom[i]] == 1
                queue.append(i)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # At the end of a stage, expand all S-blossoms with zero dual.
        for b in range(nvertex, 2 * nvertex):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    for v in range(nvertex):
        if mate[v] >= 0:
            mate[v] = endpoint[mate[v]]
    for v in range(nvertex):
        assert mate[v] == -1 or mate[mate[v]] == v
    return mate


def _blossom_array(
    ei: np.ndarray, ej: np.ndarray, ew: np.ndarray, maxcardinality: bool = False
) -> list[int]:
    """Adjacency-array blossom engine, bit-identical to the reference.

    The algorithm, its stage structure and every tie-break are those of
    :func:`_blossom_reference`; only the *scans* are bulk numpy:

    * the inner queue drain precomputes the popped vertex's full slack
      vector (the duals are constant while the queue drains — they change
      only in the delta phase between drains) and handles non-tight edges
      as vectorised best-edge updates, falling back to the scalar protocol
      body only at "hot" positions where an edge is (or may become)
      allowed;
    * ``add_blossom``'s best-edge recomputation — the dominant cost on
      dense graphs, O(leaves x degree) slack evaluations — becomes one
      gather + a stable lexsort picking the *first* minimum-slack edge per
      target blossom, exactly the sequential strict-``<`` semantics;
    * the dual-adjustment delta search evaluates each delta type as a
      masked argmin (first minimum wins, matching the ascending-index
      strict-``<`` scan).

    Scalar-rare paths (label assignment, blossom expansion, augmenting)
    keep the reference control flow verbatim, operating on the shared
    numpy state arrays.
    """
    nedge = int(ei.size)
    if nedge == 0:
        return []
    if (ei < 0).any() or (ej < 0).any() or (ei == ej).any():
        bad = int(np.flatnonzero((ei < 0) | (ej < 0) | (ei == ej))[0])
        raise MatchingError(f"invalid edge ({int(ei[bad])}, {int(ej[bad])})")
    nvertex = int(max(ei.max(), ej.max())) + 1
    maxweight = max(0.0, float(ew.max()))

    # endpoint[p]: vertex at endpoint p; edge k owns endpoints 2k and 2k+1.
    endpoint = np.empty(2 * nedge, dtype=np.int64)
    endpoint[0::2] = ei
    endpoint[1::2] = ej
    # Per-vertex remote-endpoint lists in ascending edge order — the same
    # order the reference builds neighbend[v] in.
    p_all = np.arange(2 * nedge, dtype=np.int64)
    owner = endpoint[p_all ^ 1]
    sorted_p = p_all[np.argsort(owner, kind="stable")]
    counts = np.bincount(owner, minlength=nvertex)
    starts = np.zeros(nvertex + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    adj_ps = [sorted_p[starts[v]: starts[v + 1]] for v in range(nvertex)]
    adj_ks = [p >> 1 for p in adj_ps]
    adj_ws = [endpoint[p] for p in adj_ps]

    mate = nvertex * [-1]
    label = np.zeros(2 * nvertex, dtype=np.int64)
    labelend = np.full(2 * nvertex, -1, dtype=np.int64)
    inblossom = np.arange(nvertex, dtype=np.int64)
    blossomparent = np.full(2 * nvertex, -1, dtype=np.int64)
    blossombase = np.empty(2 * nvertex, dtype=np.int64)
    blossombase[:nvertex] = np.arange(nvertex)
    blossombase[nvertex:] = -1
    blossomchilds: list[list[int] | None] = (2 * nvertex) * [None]
    blossomendps: list[list[int] | None] = (2 * nvertex) * [None]
    bestedge = np.full(2 * nvertex, -1, dtype=np.int64)
    blossombestedges: list[np.ndarray | None] = (2 * nvertex) * [None]
    unusedblossoms = list(range(nvertex, 2 * nvertex))
    dualvar = np.empty(2 * nvertex, dtype=np.float64)
    dualvar[:nvertex] = maxweight
    dualvar[nvertex:] = 0.0
    allowedge = np.zeros(nedge, dtype=bool)
    queue: list[int] = []
    # Parallel edges force the order-preserving scalar best-edge path in
    # scan_segment; simple graphs (every caller here) never pay for it.
    pair_key = np.minimum(ei, ej) * np.int64(nvertex) + np.maximum(ei, ej)
    has_parallel = bool(np.unique(pair_key).size != nedge)

    def slack(k: int) -> float:
        return dualvar[ei[k]] + dualvar[ej[k]] - 2.0 * ew[k]

    def edge_slacks(ks: np.ndarray) -> np.ndarray:
        return dualvar[ei[ks]] + dualvar[ej[ks]] - 2.0 * ew[ks]

    def blossom_leaves(b: int):
        if b < nvertex:
            yield b
        else:
            for t in blossomchilds[b]:  # type: ignore[union-attr]
                if t < nvertex:
                    yield t
                else:
                    yield from blossom_leaves(t)

    def assign_label(w: int, t: int, p: int) -> None:
        b = int(inblossom[w])
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            if b < nvertex:
                queue.append(b)
            else:
                queue.extend(blossom_leaves(b))
        elif t == 2:
            base = int(blossombase[b])
            assign_label(int(endpoint[mate[base]]), 1, mate[base] ^ 1)

    def scan_blossom(v: int, w: int) -> int:
        path = []
        base = -1
        while v != -1 or w != -1:
            b = int(inblossom[v])
            if label[b] & 4:
                base = int(blossombase[b])
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1
            else:
                v = int(endpoint[labelend[b]])
                b = int(inblossom[v])
                v = int(endpoint[labelend[b]])
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, k: int) -> None:
        v, w = int(ei[k]), int(ej[k])
        bb = int(inblossom[base])
        bv = int(inblossom[v])
        bw = int(inblossom[w])
        b = unusedblossoms.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomendps[b] = endps = []
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            endps.append(int(labelend[bv]))
            v = int(endpoint[labelend[bv]])
            bv = int(inblossom[v])
        path.append(bb)
        path.reverse()
        endps.reverse()
        endps.append(2 * k)
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            endps.append(int(labelend[bw]) ^ 1)
            w = int(endpoint[labelend[bw]])
            bw = int(inblossom[w])
        label[b] = 1
        labelend[b] = labelend[bb]
        dualvar[b] = 0.0
        leaves = np.fromiter(blossom_leaves(b), dtype=np.int64)
        queue.extend(leaves[label[inblossom[leaves]] == 2].tolist())
        inblossom[leaves] = b
        # Recompute best-edge lists of the new blossom: for every edge from
        # inside the blossom to an S-blossom outside it, keep the first
        # minimum-slack edge per target (the reference's strict-< updates).
        bestedgeto = np.full(2 * nvertex, -1, dtype=np.int64)
        for bv in path:
            if blossombestedges[bv] is None:
                nb = np.concatenate(
                    [adj_ks[leaf] for leaf in blossom_leaves(bv)]
                )
            else:
                nb = blossombestedges[bv]
            jj = ej[nb]
            jj = np.where(inblossom[jj] == b, ei[nb], jj)
            bj = inblossom[jj]
            ok = (bj != b) & (label[bj] == 1)
            if ok.any():
                nbo = nb[ok]
                bjo = bj[ok]
                sl = edge_slacks(nbo)
                # first index attaining the per-target minimum slack
                order = np.lexsort((sl, bjo))
                firsts = np.ones(order.size, dtype=bool)
                sb = bjo[order]
                firsts[1:] = sb[1:] != sb[:-1]
                sel = order[firsts]
                tb = bjo[sel]
                tk = nbo[sel]
                ts = sl[sel]
                cur = bestedgeto[tb]
                has = cur != -1
                cur_sl = np.full(tb.size, np.inf)
                if has.any():
                    cur_sl[has] = edge_slacks(cur[has])
                upd = ts < cur_sl
                bestedgeto[tb[upd]] = tk[upd]
            blossombestedges[bv] = None
            bestedge[bv] = -1
        belist = bestedgeto[bestedgeto != -1]
        blossombestedges[b] = belist
        if belist.size:
            bestedge[b] = belist[int(np.argmin(edge_slacks(belist)))]
        else:
            bestedge[b] = -1

    def expand_blossom(b: int, endstage: bool) -> None:
        for s in blossomchilds[b]:  # type: ignore[union-attr]
            blossomparent[s] = -1
            if s < nvertex:
                inblossom[s] = s
            elif endstage and dualvar[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in blossom_leaves(s):
                    inblossom[v] = s
        if (not endstage) and label[b] == 2:
            entrychild = int(inblossom[endpoint[labelend[b] ^ 1]])
            j = blossomchilds[b].index(entrychild)  # type: ignore[union-attr]
            if j & 1:
                j -= len(blossomchilds[b])  # type: ignore[arg-type]
                jstep = 1
                endptrick = 0
            else:
                jstep = -1
                endptrick = 1
            p = int(labelend[b])
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[
                    endpoint[blossomendps[b][j - endptrick] ^ endptrick ^ 1]  # type: ignore[index]
                ] = 0
                assign_label(int(endpoint[p ^ 1]), 2, p)
                allowedge[blossomendps[b][j - endptrick] // 2] = True  # type: ignore[index]
                j += jstep
                p = blossomendps[b][j - endptrick] ^ endptrick  # type: ignore[index]
                allowedge[p // 2] = True
                j += jstep
            bv = blossomchilds[b][j]  # type: ignore[index]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while blossomchilds[b][j] != entrychild:  # type: ignore[index]
                bv = blossomchilds[b][j]  # type: ignore[index]
                if label[bv] == 1:
                    j += jstep
                    continue
                for v in blossom_leaves(bv):
                    if label[v] != 0:
                        break
                if label[v] != 0:
                    label[v] = 0
                    label[endpoint[mate[int(blossombase[bv])]]] = 0
                    assign_label(v, 2, int(labelend[v]))
                j += jstep
        label[b] = labelend[b] = -1
        blossomchilds[b] = blossomendps[b] = None
        blossombase[b] = -1
        blossombestedges[b] = None
        bestedge[b] = -1
        unusedblossoms.append(b)

    def augment_blossom(b: int, v: int) -> None:
        t = v
        while blossomparent[t] != b:
            t = int(blossomparent[t])
        if t >= nvertex:
            augment_blossom(t, v)
        i = j = blossomchilds[b].index(t)  # type: ignore[union-attr]
        if i & 1:
            j -= len(blossomchilds[b])  # type: ignore[arg-type]
            jstep = 1
            endptrick = 0
        else:
            jstep = -1
            endptrick = 1
        while j != 0:
            j += jstep
            t = blossomchilds[b][j]  # type: ignore[index]
            p = blossomendps[b][j - endptrick] ^ endptrick  # type: ignore[index]
            if t >= nvertex:
                augment_blossom(t, int(endpoint[p]))
            j += jstep
            t = blossomchilds[b][j]  # type: ignore[index]
            if t >= nvertex:
                augment_blossom(t, int(endpoint[p ^ 1]))
            mate[endpoint[p]] = p ^ 1
            mate[endpoint[p ^ 1]] = p
        blossomchilds[b] = blossomchilds[b][i:] + blossomchilds[b][:i]  # type: ignore[index]
        blossomendps[b] = blossomendps[b][i:] + blossomendps[b][:i]  # type: ignore[index]
        blossombase[b] = blossombase[blossomchilds[b][0]]  # type: ignore[index]

    def augment_matching(k: int) -> None:
        v, w = int(ei[k]), int(ej[k])
        for (s, p) in ((v, 2 * k + 1), (w, 2 * k)):
            while True:
                bs = int(inblossom[s])
                if bs >= nvertex:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                t = int(endpoint[labelend[bs]])
                bt = int(inblossom[t])
                s = int(endpoint[labelend[bt]])
                j = int(endpoint[labelend[bt] ^ 1])
                if bt >= nvertex:
                    augment_blossom(bt, j)
                mate[j] = int(labelend[bt])
                p = int(labelend[bt]) ^ 1

    def scan_segment(bv: int, k_arr, w_arr, s_arr) -> None:
        """Best-edge updates for a stretch of non-tight edges of one pop.

        Mirrors the reference's per-edge ``elif`` chain: edges to S-blossoms
        update ``bestedge[inblossom[v]]``, edges to free unlabelled vertices
        update ``bestedge[w]`` — first minimum wins within the stretch,
        strict-< against the current best.
        """
        if w_arr.size < 24 or has_parallel:
            # Short stretch (or parallel edges): the sequential updates are
            # cheaper than the numpy constant factor — same decisions.
            for x in range(w_arr.size):
                w2 = int(w_arr[x])
                bw2 = int(inblossom[w2])
                if label[bw2] == 1:
                    if bw2 != bv:
                        be = int(bestedge[bv])
                        if be == -1 or s_arr[x] < slack(be):
                            bestedge[bv] = int(k_arr[x])
                elif label[w2] == 0:
                    be = int(bestedge[w2])
                    if be == -1 or s_arr[x] < slack(be):
                        bestedge[w2] = int(k_arr[x])
            return
        bw = inblossom[w_arr]
        lab_bw = label[bw]
        is_s = lab_bw == 1
        s1 = np.where(is_s & (bw != bv), s_arr, np.inf)
        a = int(s1.argmin())
        if s1[a] != np.inf:
            be = int(bestedge[bv])
            if be == -1 or s1[a] < slack(be):
                bestedge[bv] = int(k_arr[a])
        m2 = ~is_s & (label[w_arr] == 0)
        if m2.any():
            wm = w_arr[m2]
            km = k_arr[m2]
            sm = s_arr[m2]
            cur = bestedge[wm]
            cur_sl = np.where(cur != -1, dualvar[ei[cur]] + dualvar[ej[cur]] - 2.0 * ew[cur], np.inf)
            upd = sm < cur_sl
            bestedge[wm[upd]] = km[upd]

    # Main loop: one stage per augmentation.
    for _t in range(nvertex):
        label[:] = 0
        bestedge[:] = -1
        blossombestedges[nvertex:] = nvertex * [None]
        allowedge[:] = False
        del queue[:]
        mate_arr = np.asarray(mate, dtype=np.int64)
        for v in np.flatnonzero(mate_arr == -1).tolist():
            if label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = int(queue.pop())
                ps = adj_ps[v]
                ks = adj_ks[v]
                ws = adj_ws[v]
                # Duals are frozen during the drain, so one gather gives
                # every slack this scan will ever need.
                sl = edge_slacks(ks)
                hot = np.flatnonzero((sl <= 0) | allowedge[ks])
                start = 0
                for hi in hot.tolist():
                    if start < hi:
                        scan_segment(
                            int(inblossom[v]), ks[start:hi], ws[start:hi], sl[start:hi]
                        )
                    p = int(ps[hi])
                    k = int(ks[hi])
                    w = int(ws[hi])
                    start = hi + 1
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowedge[k] and sl[hi] <= 0:
                        allowedge[k] = True
                    if allowedge[k]:
                        lab_bw = int(label[inblossom[w]])
                        if lab_bw == 0:
                            assign_label(w, 2, p ^ 1)
                        elif lab_bw == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w] = 2
                            labelend[w] = p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = int(inblossom[v])
                        if bestedge[b] == -1 or sl[hi] < slack(int(bestedge[b])):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or sl[hi] < slack(int(bestedge[w])):
                            bestedge[w] = k
                if not augmented and start < ps.size:
                    scan_segment(
                        int(inblossom[v]), ks[start:], ws[start:], sl[start:]
                    )
            if augmented:
                break

            # No augmenting path found; adjust dual variables.  Each delta
            # type is a masked first-argmin, composed with strict-< in the
            # reference's type order.
            deltatype = -1
            delta = np.inf
            deltaedge = -1
            deltablossom = -1
            if not maxcardinality:
                deltatype = 1
                delta = dualvar[:nvertex].min()
            inb_lab = label[inblossom]
            cand_v = np.flatnonzero((inb_lab == 0) & (bestedge[:nvertex] != -1))
            if cand_v.size:
                be = bestedge[cand_v]
                d = edge_slacks(be)
                a = int(np.argmin(d))
                if deltatype == -1 or d[a] < delta:
                    delta = d[a]
                    deltatype = 2
                    deltaedge = int(be[a])
            cand_b = np.flatnonzero(
                (blossomparent == -1) & (label == 1) & (bestedge != -1)
            )
            if cand_b.size:
                be = bestedge[cand_b]
                d = edge_slacks(be) / 2
                a = int(np.argmin(d))
                if deltatype == -1 or d[a] < delta:
                    delta = d[a]
                    deltatype = 3
                    deltaedge = int(be[a])
            cand_t4 = np.flatnonzero(
                (blossombase[nvertex:] >= 0)
                & (blossomparent[nvertex:] == -1)
                & (label[nvertex:] == 2)
            )
            if cand_t4.size:
                d = dualvar[nvertex + cand_t4]
                a = int(np.argmin(d))
                if deltatype == -1 or d[a] < delta:
                    delta = d[a]
                    deltatype = 4
                    deltablossom = int(nvertex + cand_t4[a])
            if deltatype == -1:
                # No further progress possible (maxcardinality deadlock).
                deltatype = 1
                delta = max(0.0, float(dualvar[:nvertex].min()))

            vslice = dualvar[:nvertex]
            vslice[inb_lab == 1] -= delta
            vslice[inb_lab == 2] += delta
            top = (blossombase[nvertex:] >= 0) & (blossomparent[nvertex:] == -1)
            bslice = dualvar[nvertex:]
            blab = label[nvertex:]
            bslice[top & (blab == 1)] += delta
            bslice[top & (blab == 2)] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                allowedge[deltaedge] = True
                i = int(ei[deltaedge])
                if label[inblossom[i]] == 0:
                    i = int(ej[deltaedge])
                queue.append(i)
            elif deltatype == 3:
                allowedge[deltaedge] = True
                queue.append(int(ei[deltaedge]))
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # At the end of a stage, expand all S-blossoms with zero dual.
        for b in range(nvertex, 2 * nvertex):
            if (
                blossomparent[b] == -1
                and blossombase[b] >= 0
                and label[b] == 1
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    for v in range(nvertex):
        if mate[v] >= 0:
            mate[v] = int(endpoint[mate[v]])
    for v in range(nvertex):
        assert mate[v] == -1 or mate[mate[v]] == v
    return mate


def _pairs_from_mate(mate: Sequence[int]) -> list[tuple[int, int]]:
    return [(v, m) for v, m in enumerate(mate) if m > v]


def max_weight_perfect_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight perfect matching of a complete weighted graph.

    Args:
        weights: symmetric ``(n, n)`` matrix (n even); the diagonal is
            ignored.  All pairs are considered adjacent (weight may be 0),
            so a perfect matching always exists.

    Returns:
        ``n/2`` pairs ``(i, j)`` with ``i < j`` covering every vertex.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n:
        raise MatchingError("weights must be a square matrix")
    if n % 2 != 0:
        raise MatchingError(f"perfect matching needs an even vertex count, got {n}")
    if n == 0:
        return []
    if not np.allclose(w, w.T):
        raise MatchingError("weights must be symmetric")
    if n >= _ARRAY_MIN_VERTICES:
        # Feed the complete graph to the array engine directly — same edge
        # order as the tuple construction below (row-major upper triangle).
        iu, ju = np.triu_indices(n, k=1)
        mate = _blossom_array(
            iu.astype(np.int64), ju.astype(np.int64),
            w[iu, ju].astype(np.float64), maxcardinality=True,
        )
    else:
        edges = [(i, j, float(w[i, j])) for i in range(n) for j in range(i + 1, n)]
        mate = max_weight_matching(edges, maxcardinality=True)
    pairs = _pairs_from_mate(mate)
    if len(pairs) != n // 2:
        raise MatchingError("blossom algorithm failed to produce a perfect matching")
    return pairs


def greedy_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """Greedy O(n^2 log n) perfect matching: repeatedly take the heaviest pair.

    Used by the matching ablation (bench E16) and as a fast fallback; gives
    at least half the optimal weight.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if n % 2 != 0:
        raise MatchingError(f"perfect matching needs an even vertex count, got {n}")
    iu, ju = np.triu_indices(n, k=1)
    order = np.argsort(-w[iu, ju], kind="stable")
    taken = np.zeros(n, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for idx in order:
        i, j = int(iu[idx]), int(ju[idx])
        if not taken[i] and not taken[j]:
            taken[i] = taken[j] = True
            pairs.append((i, j))
            if len(pairs) == n // 2:
                break
    return pairs


def matching_weight(weights: np.ndarray, pairs: Iterable[tuple[int, int]]) -> float:
    """Total weight of a matching under *weights*."""
    w = np.asarray(weights, dtype=float)
    return float(sum(w[i, j] for i, j in pairs))
