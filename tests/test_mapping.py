"""Tests for the hierarchical thread mapper."""

import numpy as np
import pytest

from repro.core.commmatrix import CommunicationMatrix
from repro.core.mapping import (
    DISTANCE_COST,
    HierarchicalMapper,
    lay_out_socket_groups,
    mapping_comm_cost,
)
from repro.errors import MappingError
from repro.machine.topology import CommDistance, build_machine
from repro.workloads.patterns import (
    chain_pattern,
    distant_pairs_pattern,
    neighbor_pairs_pattern,
    uniform_pattern,
)


class TestPairPlacement:
    def test_partners_land_on_smt_siblings(self, machine):
        mapper = HierarchicalMapper(machine)
        mapping = mapper.map(neighbor_pairs_pattern(32, 100))
        for k in range(16):
            d = machine.distance(int(mapping[2 * k]), int(mapping[2 * k + 1]))
            assert d is CommDistance.SAME_CORE

    def test_distant_pairs_also_land_together(self, machine):
        mapper = HierarchicalMapper(machine)
        mapping = mapper.map(distant_pairs_pattern(32, 100))
        for i in range(16):
            d = machine.distance(int(mapping[i]), int(mapping[i + 16]))
            assert d is CommDistance.SAME_CORE

    def test_every_thread_gets_own_pu(self, machine):
        mapping = HierarchicalMapper(machine).map(chain_pattern(32))
        assert len(set(mapping.tolist())) == 32

    def test_chain_beats_random_placement(self, machine, rng):
        comm = chain_pattern(32)
        mapping = HierarchicalMapper(machine).map(comm)
        cost = mapping_comm_cost(comm, mapping, machine)
        random_costs = [
            mapping_comm_cost(comm, rng.permutation(32), machine) for _ in range(10)
        ]
        assert cost < min(random_costs)

    def test_quads_share_socket_for_block_pattern(self, machine):
        """Groups of 4 mutually-communicating threads end on one socket."""
        comm = np.zeros((32, 32))
        for base in range(0, 32, 4):
            comm[base : base + 4, base : base + 4] = 10
        np.fill_diagonal(comm, 0)
        mapping = HierarchicalMapper(machine).map(comm)
        for base in range(0, 32, 4):
            sockets = {machine.socket_of(int(mapping[base + k])) for k in range(4)}
            assert len(sockets) == 1


class TestPartialOccupancy:
    def test_fewer_threads_than_pus(self, machine):
        comm = neighbor_pairs_pattern(8, 10)
        mapping = HierarchicalMapper(machine).map(comm)
        assert len(mapping) == 8
        assert len(set(mapping.tolist())) == 8
        for k in range(4):
            assert machine.distance(int(mapping[2 * k]), int(mapping[2 * k + 1])) is CommDistance.SAME_CORE

    def test_communicating_threads_cluster_on_one_socket(self, machine):
        comm = uniform_pattern(8, 10)
        mapping = HierarchicalMapper(machine).map(comm)
        sockets = {machine.socket_of(int(p)) for p in mapping}
        assert len(sockets) == 1

    def test_odd_thread_count(self, machine):
        comm = chain_pattern(7)
        mapping = HierarchicalMapper(machine).map(comm)
        assert len(mapping) == 7 and len(set(mapping.tolist())) == 7

    def test_too_many_threads_rejected(self, machine):
        with pytest.raises(MappingError):
            HierarchicalMapper(machine).map(np.zeros((33, 33)))

    @pytest.mark.parametrize("current", [np.array([0, 1]), np.arange(9), np.zeros((8, 1))])
    def test_current_of_wrong_shape_rejected(self, machine, current):
        """A placement that is not one PU per thread is refused with a typed
        error, not an ``IndexError`` from deep in the layout."""
        with pytest.raises(MappingError, match="current placement"):
            HierarchicalMapper(machine).map(chain_pattern(8), current=current)

    def test_infinite_communication_rejected(self, machine):
        """An infinite cell has no best pairing; the mapper refuses it
        instead of splitting the pair across sockets."""
        comm = np.ones((8, 8))
        comm[0, 1] = comm[1, 0] = np.inf
        with pytest.raises(MappingError, match="finite"):
            HierarchicalMapper(machine).map(comm)


class TestMachineShapes:
    def test_single_socket_no_smt(self, single_socket_machine):
        mapping = HierarchicalMapper(single_socket_machine).map(chain_pattern(4))
        assert sorted(mapping.tolist()) == [0, 1, 2, 3]

    def test_non_power_of_two_cores_uses_greedy_packing(self):
        machine = build_machine(2, 3, 2)  # 6 cores, 12 PUs
        comm = neighbor_pairs_pattern(12, 10)
        mapping = HierarchicalMapper(machine).map(comm)
        assert len(set(mapping.tolist())) == 12
        for k in range(6):
            d = machine.distance(int(mapping[2 * k]), int(mapping[2 * k + 1]))
            assert d is CommDistance.SAME_CORE

    def test_accepts_communication_matrix_object(self, machine):
        m = CommunicationMatrix(32, chain_pattern(32))
        mapping = HierarchicalMapper(machine).map(m)
        assert len(mapping) == 32


class TestAlignment:
    def test_noop_when_already_optimal(self, machine):
        mapper = HierarchicalMapper(machine)
        comm = neighbor_pairs_pattern(32, 100)
        first = mapper.map(comm)
        second = mapper.map(comm, current=first)
        assert np.array_equal(first, second)

    def test_alignment_reduces_moves_under_relabelling(self, machine, rng):
        """Tie-breaking toward the current placement must cut migrations.

        The pair structure is fixed by the heavy weights; the higher
        grouping levels are all ties, so an unaligned mapper relabels
        sockets/cores arbitrarily while the aligned one mostly keeps them.
        """
        mapper = HierarchicalMapper(machine, stickiness=0.0)
        comm = neighbor_pairs_pattern(32, 100)
        current = mapper.map(comm)
        noisy = comm + rng.random((32, 32)) * 0.01
        noisy = (noisy + noisy.T) / 2
        np.fill_diagonal(noisy, 0)
        aligned = mapper.map(noisy, current=current)
        unaligned = mapper.map(noisy)
        moves_aligned = int((aligned != current).sum())
        moves_unaligned = int((unaligned != current).sum())
        assert moves_aligned < moves_unaligned
        assert moves_aligned <= 16
        # Pairs stay intact either way.
        for k in range(16):
            d = machine.distance(int(aligned[2 * k]), int(aligned[2 * k + 1]))
            assert d is CommDistance.SAME_CORE

    def test_stickiness_holds_uniform_patterns(self, machine, rng):
        """In homogeneous patterns any pairing is equal: keep the current."""
        mapper = HierarchicalMapper(machine, stickiness=1.0)
        uniform = uniform_pattern(32, 10)
        current = mapper.map(uniform)
        noisy = uniform + rng.random((32, 32))
        noisy = (noisy + noisy.T) / 2
        np.fill_diagonal(noisy, 0)
        remapped = mapper.map(noisy, current=current)
        assert int((remapped != current).sum()) == 0


class TestLayout:
    """``lay_out_socket_groups`` on the paper's machine, whose core *c* has
    PUs ``c`` and ``c + 16``: slots ``2c + m`` of socket group *g* form core
    group *c* of that socket group."""

    GROUPS = [[(16 * g + 2 * c, 16 * g + 2 * c + 1) for c in range(8)] for g in range(2)]

    def test_without_current_groups_take_slots_in_order(self, machine):
        pu_of_slot = lay_out_socket_groups(machine, self.GROUPS, None, 32)
        expected = [8 * g + c + 16 * m for g in range(2) for c in range(8) for m in range(2)]
        assert pu_of_slot.tolist() == expected

    def test_current_threads_stay_and_untouched_socket_keeps_order(self, machine):
        # threads 0 and 1 share core 9 (socket 1), as its second and first
        # PU; the socket group of virtual threads has nothing to keep
        pu_of_slot = lay_out_socket_groups(machine, self.GROUPS, np.array([25, 9]), 2)
        assert pu_of_slot[:2].tolist() == [25, 9]
        assert pu_of_slot[16:].tolist() == [c + 16 * m for c in range(8) for m in range(2)]


class TestCommCost:
    def test_costs_ordered_by_distance(self):
        assert (
            DISTANCE_COST[CommDistance.SAME_CORE]
            < DISTANCE_COST[CommDistance.SAME_SOCKET]
            < DISTANCE_COST[CommDistance.CROSS_SOCKET]
        )

    def test_cost_zero_without_communication(self, machine):
        assert mapping_comm_cost(np.zeros((4, 4)), np.arange(4), machine) == 0

    def test_cost_counts_each_pair_once(self, machine):
        comm = np.zeros((2, 2))
        comm[0, 1] = comm[1, 0] = 4.0
        cost = mapping_comm_cost(comm, np.array([0, 8]), machine)  # cross socket
        assert cost == 4.0 * DISTANCE_COST[CommDistance.CROSS_SOCKET]
