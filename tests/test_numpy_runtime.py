"""The runtime needs numpy only: the package's assignment solver and its
Student-t quantile are private ports of scipy routines, held here to scipy
itself (a test-only dependency).

- ``_linear_sum_assignment`` must return exactly scipy's
  ``(row_ind, col_ind)``, ties included, because the slot assignment in
  ``lay_out_socket_groups`` (and so every recorded placement) depends on
  which optimum wins a tie;
- ``_t_quantile`` must match ``scipy.stats.t.ppf`` to 1e-12 relative;
- importing the package in a fresh interpreter loads no scipy module.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import linear_sum_assignment

import repro
from repro.core.mapping import _linear_sum_assignment
from repro.engine.runner import _t_quantile, summarize
from repro.errors import ConfigurationError


def assert_same_assignment(cost):
    rows, cols = linear_sum_assignment(cost)
    assert _linear_sum_assignment(cost.tolist()) == (rows.tolist(), cols.tolist())


@st.composite
def small_int_matrices(draw):
    """Square, wide and tall matrices of small integers; a range of 0 gives
    the all-zero matrix and ranges of 1-2 give heavily tied ones."""
    nr, nc = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    hi = draw(st.sampled_from([0, 1, 2, 5, 100]))
    cells = draw(st.lists(st.integers(-hi, hi), min_size=nr * nc, max_size=nr * nc))
    return np.array(cells, dtype=float).reshape(nr, nc)


@given(cost=small_int_matrices())
@settings(max_examples=300, deadline=None)
def test_assignment_matches_scipy_on_small_integer_matrices(cost):
    assert_same_assignment(cost)


@pytest.mark.parametrize("shape", [(1, 1), (3, 3), (2, 5), (5, 2), (8, 8), (32, 32)])
@pytest.mark.parametrize("value", [0.0, -1.0, 7.0])
def test_assignment_matches_scipy_on_constant_matrices(shape, value):
    assert_same_assignment(np.full(shape, value))


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (2, 5), (32, 32)])
def test_zero_matrix_assigns_row_i_to_column_i(shape):
    # lay_out_socket_groups skips the solver when nothing overlaps and
    # takes this answer instead
    rows, cols = _linear_sum_assignment(np.zeros(shape).tolist())
    assert rows == cols == list(range(shape[0]))


@pytest.mark.parametrize("size", [8, 32])
def test_assignment_matches_scipy_on_seeded_overlap_sweep(size):
    # negated counts, as lay_out_socket_groups passes its overlap matrices
    rng = np.random.default_rng(size)
    for hi in (1, 4, 32):
        for _ in range(30):
            assert_same_assignment(-rng.integers(0, hi + 1, size=(size, size)).astype(float))


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_assignment_matches_scipy_on_empty_matrices(shape):
    assert_same_assignment(np.zeros(shape))


@pytest.mark.parametrize("confidence", [0.8, 0.9, 0.95, 0.99])
def test_t_quantile_matches_scipy(confidence):
    q = 0.5 + confidence / 2.0
    for df in range(1, 201):
        assert _t_quantile(q, df) == pytest.approx(stats.t.ppf(q, df), rel=1e-12, abs=0)


def test_summarize_ci_matches_scipy():
    values = np.array([1.0, 2.0, 3.0])
    expected = values.std(ddof=1) / np.sqrt(values.size) * stats.t.ppf(0.975, 2)
    assert summarize(values).ci95 == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5])
def test_summarize_rejects_confidence_outside_unit_interval(confidence):
    with pytest.raises(ConfigurationError, match="confidence"):
        summarize([1.0, 2.0], confidence=confidence)


def test_runtime_imports_load_no_scipy():
    """The packages the lint job imports after ``pip install .`` (no test
    extra) load no scipy module in a fresh interpreter."""
    code = (
        "import sys\n"
        "import repro, repro.serve, repro.graphs, repro.check, repro.obs.report\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
