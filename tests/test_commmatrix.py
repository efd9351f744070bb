"""Tests for the communication matrix."""

import numpy as np
import pytest

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
