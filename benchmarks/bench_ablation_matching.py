"""E16 — ablation: exact blossom matching vs. the greedy heuristic.

Times both matchers with pytest-benchmark on paper-sized (32-thread) and
larger communication matrices and compares solution quality.  The exact
algorithm is polynomial (Edmonds [15]); greedy is the cheap fallback.
"""

import numpy as np
import pytest
from conftest import emit

from repro.analysis.report import format_table
from repro.core.matching import (
    greedy_matching,
    matching_weight,
    max_weight_perfect_matching,
)
from repro.workloads.patterns import chain_pattern, uniform_pattern


def noisy_chain(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    w = chain_pattern(n, 10.0) + uniform_pattern(n, 0.5) + rng.random((n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return w


@pytest.mark.parametrize("n", [32, 64])
def test_bench_blossom_matching(benchmark, n):
    w = noisy_chain(n)
    pairs = benchmark(max_weight_perfect_matching, w)
    assert len(pairs) == n // 2


@pytest.mark.parametrize("n", [32, 64])
def test_bench_greedy_matching(benchmark, n):
    w = noisy_chain(n)
    pairs = benchmark(greedy_matching, w)
    assert len(pairs) == n // 2


def test_ablation_matching_quality(benchmark, results_dir):
    def sweep():
        rows = []
        for n in (16, 32, 64):
            w = noisy_chain(n)
            exact = matching_weight(w, max_weight_perfect_matching(w))
            greedy = matching_weight(w, greedy_matching(w))
            rows.append([n, f"{exact:.1f}", f"{greedy:.1f}", f"{greedy / exact:.4f}"])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # greedy is a 1/2-approximation of the exact matching
    checks = [
        (f"n={row[0]} greedy/blossom {row[3]} in [0.5, 1]",
         0.5 <= float(row[3]) <= 1.0 + 1e-9)
        for row in rows
    ]
    emit(
        results_dir,
        "ablation_matching.txt",
        format_table(
            ["threads", "blossom weight", "greedy weight", "quality ratio"],
            rows,
            title="Ablation — matching algorithm quality",
        ),
        checks=checks,
        config="noisy chain matrices (seed 0), n=16,32,64",
    )
