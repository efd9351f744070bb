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

These pure-Python loops are the one matching engine.  The Edmonds mapper
pads every matrix to the machine's PU count, and machines of 128 PUs or
more take the hierarchical mapper instead
(:func:`repro.core.mapping.select_mapper_algorithm`), so no default
decision solves more than 127 vertices (DESIGN.md §7.4).  Brute force,
networkx's matching weights and the recorded digests pin the loops.
Weights must be finite: a graph with an infinite or NaN weight has no
maximum-weight matching, so both entry points refuse one.

A cheap O(n^2 log n) :func:`greedy_matching` is provided for the ablation
study (bench E16) and the property tests, as a lower bound on the exact
matching.  No mapper uses it.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.errors import MatchingError

__all__ = [
    "greedy_matching",
    "matching_weight",
    "max_weight_matching",
    "max_weight_perfect_matching",
]


def max_weight_matching(
    edges: Sequence[tuple[int, int, float]], maxcardinality: bool = False
) -> list[int]:
    """Maximum-weight matching of a general graph (blossom algorithm).

    Args:
        edges: ``(i, j, weight)`` triples with ``i != j`` and a finite
            weight; vertices are the integers appearing in the triples
            (dense ids recommended).
        maxcardinality: if True, only maximum-cardinality matchings are
            considered (among them, the heaviest is returned).

    Returns:
        ``mate`` array: ``mate[v]`` is the vertex matched to *v*, or -1.

    Raises:
        MatchingError: a weight is not finite, or an edge is a self-loop or
            has a negative endpoint.
    """
    if not edges:
        return []
    if not all(math.isfinite(w) for (_i, _j, w) in edges):
        raise MatchingError("weights must be finite")
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


def _pairs_from_mate(mate: Sequence[int]) -> list[tuple[int, int]]:
    return [(v, m) for v, m in enumerate(mate) if m > v]


def max_weight_perfect_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight perfect matching of a complete weighted graph.

    Args:
        weights: symmetric, finite ``(n, n)`` matrix (n even); the
            diagonal is ignored.  All pairs are considered adjacent (weight
            may be 0), so a perfect matching always exists.

    Returns:
        ``n/2`` pairs ``(i, j)`` with ``i < j`` covering every vertex.

    Raises:
        MatchingError: a weight is not finite, or the matrix is not square,
            symmetric and of even size.
    """
    w = np.asarray(weights, dtype=float)
    if not np.isfinite(w).all():
        raise MatchingError("weights must be finite")
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise MatchingError("weights must be a square matrix")
    n = w.shape[0]
    if n % 2 != 0:
        raise MatchingError(f"perfect matching needs an even vertex count, got {n}")
    if n == 0:
        return []
    if not np.allclose(w, w.T):
        raise MatchingError("weights must be symmetric")
    edges = [(i, j, float(w[i, j])) for i in range(n) for j in range(i + 1, n)]
    mate = max_weight_matching(edges, maxcardinality=True)
    pairs = _pairs_from_mate(mate)
    if len(pairs) != n // 2:
        raise MatchingError("blossom algorithm failed to produce a perfect matching")
    return pairs


def greedy_matching(weights: np.ndarray) -> list[tuple[int, int]]:
    """Greedy O(n^2 log n) perfect matching: repeatedly take the heaviest pair.

    Used by the matching ablation (bench E16) and the property tests; gives
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
