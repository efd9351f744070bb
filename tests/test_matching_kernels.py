"""Differential tests: array blossom engine vs the pure-Python reference.

The numpy engine (:func:`repro.core.matching._blossom_array`) must return
*bit-identical* ``mate`` arrays to the reference loops for every input we
feed it — same optimum, same tie-breaks, same vertex order.  These tests
pin that equivalence on 200 random integer matrices (including degenerate
all-ties inputs, where the tie-breaking order is the only thing deciding
the result), on sparse general graphs, and on the vectorised group-matrix
fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.grouping import build_hierarchy, group_matrix, pair_groups
from repro.core.matching import (
    _ARRAY_MIN_VERTICES,
    _blossom_array,
    _blossom_reference,
    greedy_matching,
    matching_weight,
    max_weight_matching,
    max_weight_perfect_matching,
)
from repro.errors import MappingError


def _both_engines(edges, maxcardinality):
    ref = _blossom_reference(edges, maxcardinality)
    ei = np.fromiter((e[0] for e in edges), np.int64, count=len(edges))
    ej = np.fromiter((e[1] for e in edges), np.int64, count=len(edges))
    ew = np.fromiter((e[2] for e in edges), np.float64, count=len(edges))
    arr = _blossom_array(ei, ej, ew, maxcardinality)
    return ref, arr


def _random_symmetric_int(rng, n, hi):
    m = rng.integers(0, hi, size=(n, n)).astype(float)
    m = np.triu(m, 1)
    return m + m.T


def _complete_edges(m):
    n = m.shape[0]
    return [(i, j, float(m[i, j])) for i in range(n) for j in range(i + 1, n)]


def test_engines_bit_identical_on_200_random_integer_matrices():
    """200 random integer matrices, low ranges forcing degenerate ties."""
    rng = np.random.default_rng(20130520)  # paper's conference date
    for trial in range(200):
        n = int(rng.integers(4, 36))
        # hi=1 gives the fully degenerate all-zeros matrix; hi=2 is almost
        # all ties — the result is then decided purely by scan order.
        hi = int(rng.choice([1, 2, 3, 8, 1000]))
        m = _random_symmetric_int(rng, n, hi)
        edges = _complete_edges(m)
        maxcard = bool(trial % 2)
        ref, arr = _both_engines(edges, maxcard)
        assert ref == arr, f"trial {trial}: n={n} hi={hi} maxcardinality={maxcard}"


def test_engines_bit_identical_on_all_ties_matrix():
    """Every weight equal: only tie-break order decides the pairing."""
    for n in (8, 16, 32, 64):
        m = np.full((n, n), 7.0)
        np.fill_diagonal(m, 0.0)
        ref, arr = _both_engines(_complete_edges(m), True)
        assert ref == arr
        assert all(x >= 0 for x in arr)  # perfect


def test_engines_bit_identical_on_sparse_graphs():
    """General (non-complete) graphs, both cardinality modes."""
    rng = np.random.default_rng(99)
    for trial in range(60):
        n = int(rng.integers(6, 40))
        max_edges = n * (n - 1) // 2
        nedges = min(int(rng.integers(n, 3 * n)), max_edges)
        es = set()
        while len(es) < nedges:
            i, j = sorted(rng.integers(0, n, 2).tolist())
            if i != j:
                es.add((i, j))
        edges = [(i, j, float(rng.integers(0, 5))) for (i, j) in sorted(es)]
        for mc in (False, True):
            ref, arr = _both_engines(edges, mc)
            assert ref == arr, f"trial {trial} maxcardinality={mc}"


def test_dispatch_matches_reference_across_threshold():
    """The public function returns reference results on both sides of the
    size cutover."""
    rng = np.random.default_rng(5)
    for n in (8, 40, 48, 72, _ARRAY_MIN_VERTICES - 2, _ARRAY_MIN_VERTICES):
        m = _random_symmetric_int(rng, n, 6)
        edges = _complete_edges(m)
        assert max_weight_matching(edges, True) == _blossom_reference(edges, True)


def test_perfect_matching_array_path_is_optimal():
    """Array fast path of the perfect matching: optimal weight, full cover."""
    rng = np.random.default_rng(17)
    n = _ARRAY_MIN_VERTICES
    m = _random_symmetric_int(rng, n, 50)
    pairs = max_weight_perfect_matching(m)
    assert len(pairs) == n // 2
    assert sorted(t for p in pairs for t in p) == list(range(n))
    # optimal ≥ greedy (greedy is a 1/2-approximation)
    assert matching_weight(m, pairs) >= matching_weight(m, greedy_matching(m))


def test_group_matrix_fold_matches_indicator_product():
    """Equal-size gather-fold equals the indicator matmul exactly on ints."""
    rng = np.random.default_rng(11)
    for n, size in ((16, 2), (32, 4), (64, 8)):
        comm = _random_symmetric_int(rng, n, 100)
        perm = rng.permutation(n)
        groups = [tuple(perm[i: i + size].tolist()) for i in range(0, n, size)]
        fast = group_matrix(comm, groups)
        g = len(groups)
        indicator = np.zeros((g, n))
        for a, members in enumerate(groups):
            indicator[a, list(members)] = 1.0
        ref = indicator @ comm @ indicator.T
        np.fill_diagonal(ref, 0.0)
        assert np.array_equal(fast, ref)


def test_group_matrix_still_validates_members():
    comm = np.zeros((4, 4))
    with pytest.raises(MappingError):
        group_matrix(comm, [(0, 1), (2, 9)])
    with pytest.raises(MappingError):
        group_matrix(comm, [(0, 1), (1, 2)])


def test_build_hierarchy_unchanged_semantics():
    """Pairing rounds still produce the documented pairing-tree encoding."""
    rng = np.random.default_rng(2)
    n = 16
    comm = _random_symmetric_int(rng, n, 30)
    groups = build_hierarchy(comm, 4)
    assert len(groups) == 4 and all(len(g) == 4 for g in groups)
    assert sorted(t for g in groups for t in g) == list(range(n))
    # one round of pairing halves the group count
    assert len(pair_groups(comm, groups)) == 2
