"""Tests for the communication matrix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.commmatrix import CommunicationMatrix
from repro.errors import ConfigurationError
from repro.workloads.patterns import chain_pattern, uniform_pattern


class TestBasics:
    def test_add_is_symmetric(self):
        m = CommunicationMatrix(4)
        m.add(0, 2, 3.0)
        assert m.matrix[0, 2] == m.matrix[2, 0] == 3.0

    def test_self_communication_ignored(self):
        m = CommunicationMatrix(4)
        m.add(1, 1, 5.0)
        assert m.total() == 0

    def test_total_counts_pairs_once(self):
        m = CommunicationMatrix(4)
        m.add(0, 1, 2.0)
        m.add(2, 3, 3.0)
        assert m.total() == 5.0

    def test_init_from_data_requires_symmetry(self):
        with pytest.raises(ConfigurationError):
            CommunicationMatrix(2, np.array([[0, 1], [2, 0]]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_init_from_data_requires_finite_cells(self, bad):
        data = np.ones((8, 8))
        data[0, 1] = data[1, 0] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            CommunicationMatrix(8, data)

    def test_init_zeroes_diagonal(self):
        m = CommunicationMatrix(2, np.array([[7.0, 1.0], [1.0, 7.0]]))
        assert m.matrix[0, 0] == 0

    def test_reset(self):
        m = CommunicationMatrix(3)
        m.add(0, 1)
        m.reset()
        assert m.total() == 0

    def test_copy_is_independent(self):
        m = CommunicationMatrix(3)
        m.add(0, 1)
        c = m.copy()
        c.add(0, 1)
        assert m.matrix[0, 1] == 1 and c.matrix[0, 1] == 2


class TestDecayAndDiff:
    def test_decay(self):
        m = CommunicationMatrix(3)
        m.add(0, 1, 10)
        m.decay(0.5)
        assert m.matrix[0, 1] == 5

    def test_decay_range_checked(self):
        with pytest.raises(ConfigurationError):
            CommunicationMatrix(3).decay(1.5)

    def test_diff_extracts_interval(self):
        m = CommunicationMatrix(3)
        m.add(0, 1, 5)
        snap = m.copy()
        m.add(1, 2, 3)
        d = m.diff(snap)
        assert d.matrix[1, 2] == 3 and d.matrix[0, 1] == 0

    def test_diff_clips_negative(self):
        m = CommunicationMatrix(3)
        snap = m.copy()
        snap.add(0, 1, 5)
        assert m.diff(snap).total() == 0

    def test_diff_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            CommunicationMatrix(3).diff(CommunicationMatrix(4))


class TestPartners:
    def test_partner_is_argmax(self):
        m = CommunicationMatrix(3)
        m.add(0, 1, 1)
        m.add(0, 2, 5)
        assert m.partners()[0] == 2

    def test_no_partner_for_silent_thread(self):
        m = CommunicationMatrix(3)
        m.add(0, 1, 1)
        assert m.partners()[2] == -1

    def test_tie_resolves_to_lowest(self):
        m = CommunicationMatrix(3)
        m.add(1, 0, 2)
        m.add(1, 2, 2)
        assert m.partners()[1] == 0


class TestAnalysis:
    def test_normalized_peak_is_one(self):
        m = CommunicationMatrix(3)
        m.add(0, 1, 8)
        assert m.normalized().max() == 1.0

    def test_normalized_of_empty_is_zero(self):
        assert CommunicationMatrix(3).normalized().max() == 0.0

    def test_correlation_with_self_is_one(self):
        m = CommunicationMatrix(8, chain_pattern(8))
        assert m.correlation(m.copy()) == pytest.approx(1.0)

    def test_correlation_scale_invariant(self):
        a = CommunicationMatrix(8, chain_pattern(8))
        b = CommunicationMatrix(8, chain_pattern(8) * 100)
        assert a.correlation(b) == pytest.approx(1.0)

    def test_chain_more_heterogeneous_than_uniform(self):
        chain = CommunicationMatrix(16, chain_pattern(16))
        uniform = CommunicationMatrix(16, uniform_pattern(16))
        assert chain.heterogeneity() > uniform.heterogeneity()

    def test_empty_matrix_is_homogeneous(self):
        assert CommunicationMatrix(8).heterogeneity() == 0.0


class TestSerialisation:
    def test_csv_roundtrip(self, tmp_path):
        m = CommunicationMatrix(4, chain_pattern(4))
        path = str(tmp_path / "m.csv")
        m.to_csv(path)
        back = CommunicationMatrix.from_csv(path)
        assert np.allclose(m.matrix, back.matrix)

    def test_from_csv_rejects_non_square(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ConfigurationError):
            CommunicationMatrix.from_csv(str(path))

    def test_from_csv_rejects_infinite_cell(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("0,inf\ninf,0\n")
        with pytest.raises(ConfigurationError, match="finite"):
            CommunicationMatrix.from_csv(str(path))


class TestMerge:
    def test_merge_accumulates_in_place_and_returns_self(self):
        a = CommunicationMatrix(4, chain_pattern(4))
        b = CommunicationMatrix(4, uniform_pattern(4))
        expected = a.matrix + b.matrix
        out = a.merge(b)
        assert out is a
        assert np.array_equal(a.matrix, expected)

    def test_merge_scale(self):
        a = CommunicationMatrix(4)
        b = CommunicationMatrix(4, uniform_pattern(4))
        a.merge(b, scale=0.5)
        assert np.array_equal(a.matrix, 0.5 * b.matrix)

    def test_merge_is_commutative_for_integer_counts(self):
        rng = np.random.default_rng(7)
        shards = []
        for _ in range(4):
            m = CommunicationMatrix(6)
            for i, j in rng.integers(0, 6, size=(200, 2)):
                if i != j:
                    m.add(int(i), int(j))
            shards.append(m)
        forward = CommunicationMatrix(6)
        for m in shards:
            forward.merge(m)
        backward = CommunicationMatrix(6)
        for m in reversed(shards):
            backward.merge(m)
        # integer event counts are exact in float64: any merge order is
        # bit-identical
        assert np.array_equal(forward.matrix, backward.matrix)
        assert forward.matrix.tobytes() == backward.matrix.tobytes()

    def test_merge_deterministic_across_shardings(self):
        # the same event stream split into 1, 2 or 3 shards merges to the
        # same matrix, bit for bit
        rng = np.random.default_rng(11)
        events = [(int(i), int(j)) for i, j in rng.integers(0, 5, size=(300, 2)) if i != j]
        reference = CommunicationMatrix(5)
        for i, j in events:
            reference.add(i, j)
        for n_shards in (1, 2, 3):
            shards = [CommunicationMatrix(5) for _ in range(n_shards)]
            for index, (i, j) in enumerate(events):
                shards[index % n_shards].add(i, j)
            merged = CommunicationMatrix(5)
            for m in shards:
                merged.merge(m)
            assert merged.matrix.tobytes() == reference.matrix.tobytes()

    def test_merge_keeps_other_unchanged(self):
        a = CommunicationMatrix(3)
        b = CommunicationMatrix(3, uniform_pattern(3))
        before = b.matrix.copy()
        a.merge(b)
        assert np.array_equal(b.matrix, before)

    def test_merge_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            CommunicationMatrix(3).merge(CommunicationMatrix(4))


class TestThreadIds:
    """A thread id outside ``[0, n)`` is refused before any cell changes;
    ``-1`` once wrapped round to the last thread, and ``n`` or more raised
    numpy's untyped ``IndexError``."""

    @pytest.mark.parametrize(
        "partners",
        [[-1] * 9, [-1] * 3, [7] * 9, [7], [0, 1, 2, 3, 4, 1, 2, 3, 0]],
        ids=["negative-array", "negative-loop", "past-n-array", "past-n-loop", "n-mixed"],
    )
    def test_add_events_refuses_a_partner_outside_the_matrix(self, partners):
        m = CommunicationMatrix(4)
        with pytest.raises(ConfigurationError, match="outside"):
            m.add_events(0, np.array(partners))
        assert not m.matrix.any()

    @pytest.mark.parametrize("i", [-1, 4])
    @pytest.mark.parametrize("size", [3, 9])
    def test_add_events_refuses_its_own_id_outside_the_matrix(self, i, size):
        m = CommunicationMatrix(4)
        with pytest.raises(ConfigurationError, match="outside"):
            m.add_events(i, np.ones(size, dtype=np.int64))
        assert not m.matrix.any()

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (4, 0), (0, 7), (-2, -2)])
    def test_add_refuses_an_id_outside_the_matrix(self, i, j):
        m = CommunicationMatrix(4)
        with pytest.raises(ConfigurationError, match="outside"):
            m.add(i, j)
        assert not m.matrix.any()


def _symmetric(n, seed, integral):
    rng = np.random.default_rng(seed)
    # fractions below 1 carry a full mantissa into every binade a count
    # crosses, so most crossings round
    half = rng.integers(0, 50, (n, n)) if integral else rng.random((n, n))
    return (half + half.T).astype(np.float64)


def _start(n, kind, seed):
    if kind == "zero":
        return CommunicationMatrix(n)
    if kind == "edge":  # one cell a step below float64's last exact integer
        data = np.zeros((n, n))
        data[0, 1] = data[1, 0] = 2.0**53 - 1
        return CommunicationMatrix(n, data)
    if kind == "negative-zero":  # 0.0 + 0 would turn an untouched -0.0 into 0.0
        return CommunicationMatrix(n, np.full((n, n), -0.0))
    return CommunicationMatrix(n, _symmetric(n, seed, kind == "integral"))


_AMOUNTS = st.one_of(st.integers(-3, 5), st.floats(-3.0, 5.0, allow_nan=False))


@st.composite
def _histories(draw):
    """A start matrix and a sequence of operations on it."""
    n = draw(st.integers(2, 6))
    ids = st.integers(0, n - 1)
    events = st.tuples(
        st.just("events"),
        ids,
        st.one_of(st.lists(ids, max_size=8), st.lists(ids, min_size=9, max_size=300)),
    )
    op = st.one_of(
        events,
        events,
        st.tuples(st.just("add"), ids, ids, _AMOUNTS),
        st.tuples(st.just("decay"), st.one_of(st.sampled_from([1.0, 0.92, 0.5]), st.floats(0, 1))),
        st.tuples(
            st.just("merge"),
            st.sampled_from(["integral", "fractional", "edge"]),
            st.integers(0, 3),
            st.one_of(st.integers(-2, 3), st.floats(-2.0, 3.0, allow_nan=False)),
        ),
        st.tuples(st.just("reset")),
    )
    kind = draw(st.sampled_from(["zero", "integral", "fractional", "edge", "negative-zero"]))
    return n, kind, draw(st.integers(0, 3)), draw(st.lists(op, max_size=12))


class TestAddEvents:
    @settings(max_examples=100, deadline=None)
    @given(_histories())
    def test_equals_scalar_adds_after_any_history(self, history):
        """``add_events`` leaves the bytes that one ``add(i, j, 1.0)`` per
        event leaves, whichever path it takes: integer counts, decayed
        fractions, a cell at 2**53 - 1, ``-0.0`` cells, merges and resets
        in between."""
        n, kind, seed, ops = history
        fast, scalar = _start(n, kind, seed), _start(n, kind, seed)
        for op in ops:
            if op[0] == "events":
                _, i, partners = op
                fast.add_events(i, np.array(partners, dtype=np.int64))
                for j in partners:
                    scalar.add(i, j, 1.0)
            elif op[0] == "merge":
                _, other_kind, other_seed, scale = op
                fast.merge(_start(n, other_kind, other_seed), scale)
                scalar.merge(_start(n, other_kind, other_seed), scale)
            else:
                getattr(fast, op[0])(*op[1:])
                getattr(scalar, op[0])(*op[1:])
            assert fast.matrix.tobytes() == scalar.matrix.tobytes(), op

    @staticmethod
    def _agree_with_scalar_adds(prepare, sizes=range(9, 301)):
        """For each batch size, a batch of that many events between threads
        0 and 1 after ``prepare(matrix)`` leaves scalar adds' bytes.  From
        the cells the cases below start at (2.76, 1/3, 2/3), adding the
        count at once rounds differently for 80 to 167 of these sizes."""
        for size in sizes:
            fast, scalar = CommunicationMatrix(4), CommunicationMatrix(4)
            prepare(fast)
            prepare(scalar)
            fast.add_events(0, np.ones(size, dtype=np.int64))
            for _ in range(size):
                scalar.add(0, 1, 1.0)
            assert fast.matrix.tobytes() == scalar.matrix.tobytes(), size

    @pytest.mark.parametrize(
        "prepare",
        [
            lambda m: (m.add(0, 1, 3), m.decay(0.92)),
            lambda m: m.add(0, 1, 1 / 3),
            lambda m: m.merge(CommunicationMatrix(4, 3 * uniform_pattern(4)), 0.92),
            lambda m: m.merge(CommunicationMatrix(4, 3 * 0.92 * uniform_pattern(4))),
            lambda m: m.merge(
                CommunicationMatrix(4).merge(CommunicationMatrix(4, 1 / 3 * uniform_pattern(4))),
                2,
            ),
        ],
        ids=["decay", "add-fraction", "merge-scale", "merge-fractions", "merge-inexact"],
    )
    def test_each_fraction_source_leaves_the_count_add(self, prepare):
        """A fraction from a decay, an ``add`` amount or a ``merge`` makes
        later batches round as one-by-one additions do."""
        self._agree_with_scalar_adds(prepare)

    def test_loop_events_count_toward_the_bound(self):
        """Eight events through the small-batch loop take a cell from
        2**53 - 10 to 2**53 - 2; a count add of the next 9 would then read
        2**53 + 8 where one-by-one additions stop at 2**53."""
        data = np.zeros((4, 4))
        data[0, 1] = data[1, 0] = 2.0**53 - 10

        def prepare(m):
            m.merge(CommunicationMatrix(4, data))
            m.add_events(0, np.ones(8, dtype=np.int64))

        self._agree_with_scalar_adds(prepare, sizes=[9])

    def test_negative_zero_cells_stay_negative(self):
        """Adding a zero count would turn an untouched ``-0.0`` into
        ``0.0``; one-by-one additions leave it alone."""
        m = CommunicationMatrix(4, np.full((4, 4), -0.0))
        m.add_events(0, np.ones(9, dtype=np.int64))
        assert m.matrix[0, 1] == 9.0
        assert np.signbit(m.matrix[0, 2]) and np.signbit(m.matrix[3, 0])

    def test_no_count_add_past_the_last_exact_integer(self):
        """From 2**53 - 1, each further 1.0 rounds back to 2**53; adding
        the batch's count of 9 at once would read 2**53 + 8."""
        data = np.zeros((4, 4))
        data[0, 1] = data[1, 0] = 2.0**53 - 1
        m = CommunicationMatrix(4, data)
        m.add_events(0, np.ones(9, dtype=np.int64))
        assert m.matrix[0, 1] == m.matrix[1, 0] == 2.0**53

    @pytest.mark.parametrize("size", [0, 5, 256])
    def test_counts_every_partner_but_itself(self, size):
        partners = np.arange(size, dtype=np.int64) % 4
        m = CommunicationMatrix(4)
        m.add_events(2, partners)
        expected = np.bincount(partners, minlength=4).astype(np.float64)
        expected[2] = 0.0
        assert np.array_equal(m.matrix[2], expected)
        assert np.array_equal(m.matrix[:, 2], expected)
        assert m.total() == expected.sum()
