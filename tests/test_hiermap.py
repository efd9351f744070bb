"""Tests for the scalable hierarchical mapper and the mapper registry.

Quality gate: on every paper-scale (n <= 32) Fig. 7-suite matrix the
recursive-bisection mapper must land within 10% of the Edmonds engine's
communication cost.  Determinism gate: the same matrix always yields the
same mapping, including under exact ties.
"""

import numpy as np
import pytest

from repro.core.mapping import (
    AUTO_HIERARCHICAL_PUS,
    MAPPER_ALGORITHMS,
    HierarchicalMapper,
    make_mapper,
    mapping_comm_cost,
    select_mapper_algorithm,
)
from repro.engine.simulator import EngineConfig, Simulator
from repro.errors import MappingError
from repro.graphs.hiermap import ScalableHierarchicalMapper
from repro.machine.topology import CommDistance, build_machine, dual_xeon_e5_2650
from repro.workloads.npb import NPB_SPECS, make_npb
from repro.workloads.patterns import (
    chain_pattern,
    distant_pairs_pattern,
    neighbor_pairs_pattern,
    uniform_pattern,
)

_PATTERNS = {
    "neighbor": neighbor_pairs_pattern(32, 100),
    "distant": distant_pairs_pattern(32, 100),
    "chain": chain_pattern(32),
    "uniform": uniform_pattern(32, 10),
}


class TestMakeMapper:
    def test_registry_names(self):
        assert MAPPER_ALGORITHMS == ("edmonds", "hierarchical")

    def test_edmonds_resolves_to_blossom_engine(self, machine):
        assert isinstance(make_mapper("edmonds", machine), HierarchicalMapper)

    def test_hierarchical_resolves_to_scalable_engine(self, machine):
        mapper = make_mapper("hierarchical", machine, stickiness=0.4)
        assert isinstance(mapper, ScalableHierarchicalMapper)
        assert mapper.stickiness == 0.4

    def test_unknown_algorithm_rejected(self, machine):
        with pytest.raises(MappingError, match="unknown mapping algorithm"):
            make_mapper("metis", machine)


class TestQuality:
    @pytest.mark.parametrize("name", sorted(NPB_SPECS))
    def test_within_ten_percent_of_edmonds_on_npb(self, machine, name):
        comm = make_npb(name, 32).ground_truth().matrix
        cost_e = mapping_comm_cost(comm, HierarchicalMapper(machine).map(comm), machine)
        cost_h = mapping_comm_cost(
            comm, ScalableHierarchicalMapper(machine).map(comm), machine
        )
        assert cost_h <= 1.10 * cost_e + 1e-9

    @pytest.mark.parametrize("name", sorted(_PATTERNS))
    def test_within_ten_percent_on_synthetic_patterns(self, machine, name):
        comm = _PATTERNS[name]
        cost_e = mapping_comm_cost(comm, HierarchicalMapper(machine).map(comm), machine)
        cost_h = mapping_comm_cost(
            comm, ScalableHierarchicalMapper(machine).map(comm), machine
        )
        assert cost_h <= 1.10 * cost_e + 1e-9

    @pytest.mark.parametrize("n", [32, 64])
    def test_selected_mapper_matches_edmonds_on_the_smallest_switched_machine(self, n):
        """The premise of keying the switch on PUs: on a 128-PU machine the
        selected mapper costs at most 1% more than Edmonds on every NPB
        ground truth, though the thread count is below the switch."""
        machine = build_machine(2, 32, 2)
        selected = make_mapper(select_mapper_algorithm(machine), machine)
        assert isinstance(selected, ScalableHierarchicalMapper)
        edmonds = HierarchicalMapper(machine)
        for name in sorted(NPB_SPECS):
            comm = make_npb(name, n).ground_truth().matrix
            cost_s = mapping_comm_cost(comm, selected.map(comm), machine)
            cost_e = mapping_comm_cost(comm, edmonds.map(comm), machine)
            assert cost_s <= 1.01 * cost_e + 1e-9, (name, cost_s, cost_e)

    def test_pairs_land_on_smt_siblings(self, machine):
        mapping = ScalableHierarchicalMapper(machine).map(neighbor_pairs_pattern(32, 100))
        for k in range(16):
            d = machine.distance(int(mapping[2 * k]), int(mapping[2 * k + 1]))
            assert d is CommDistance.SAME_CORE

    def test_quads_share_socket_for_block_pattern(self, machine):
        comm = np.zeros((32, 32))
        for base in range(0, 32, 4):
            comm[base : base + 4, base : base + 4] = 10
        np.fill_diagonal(comm, 0)
        mapping = ScalableHierarchicalMapper(machine).map(comm)
        for base in range(0, 32, 4):
            sockets = {machine.socket_of(int(mapping[base + k])) for k in range(4)}
            assert len(sockets) == 1

    def test_beats_random_placement(self, machine, rng):
        comm = chain_pattern(32)
        cost = mapping_comm_cost(
            comm, ScalableHierarchicalMapper(machine).map(comm), machine
        )
        random_costs = [
            mapping_comm_cost(comm, rng.permutation(32), machine) for _ in range(10)
        ]
        assert cost < min(random_costs)


class TestContract:
    def test_partial_occupancy_valid(self, machine):
        mapping = ScalableHierarchicalMapper(machine).map(neighbor_pairs_pattern(8, 10))
        assert len(mapping) == 8
        assert len(set(mapping.tolist())) == 8

    def test_odd_thread_count(self, machine):
        mapping = ScalableHierarchicalMapper(machine).map(chain_pattern(7))
        assert len(mapping) == 7 and len(set(mapping.tolist())) == 7

    def test_too_many_threads_rejected(self, machine):
        with pytest.raises(MappingError):
            ScalableHierarchicalMapper(machine).map(np.zeros((33, 33)))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_communication_rejected(self, machine, bad):
        comm = np.ones((8, 8))
        comm[0, 1] = comm[1, 0] = bad
        with pytest.raises(MappingError, match="finite"):
            ScalableHierarchicalMapper(machine).map(comm)

    @pytest.mark.parametrize("current", [np.array([0, 1]), np.arange(9), np.zeros((8, 1))])
    def test_current_of_wrong_shape_rejected(self, machine, current):
        with pytest.raises(MappingError, match="current placement"):
            ScalableHierarchicalMapper(machine).map(chain_pattern(8), current=current)

    def test_single_socket_machine(self, single_socket_machine):
        mapping = ScalableHierarchicalMapper(single_socket_machine).map(chain_pattern(4))
        assert sorted(mapping.tolist()) == [0, 1, 2, 3]

    def test_non_power_of_two_cores(self):
        machine = build_machine(2, 3, 2)  # 6 cores, 12 PUs
        comm = neighbor_pairs_pattern(12, 10)
        mapping = ScalableHierarchicalMapper(machine).map(comm)
        assert len(set(mapping.tolist())) == 12

    def test_accepts_matrix_object(self, machine):
        from repro.core.commmatrix import CommunicationMatrix

        comm = chain_pattern(32)
        mapper = ScalableHierarchicalMapper(machine)
        base = mapper.map(comm)
        assert np.array_equal(mapper.map(CommunicationMatrix(32, comm)), base)

    def test_counts_calls(self, machine):
        mapper = ScalableHierarchicalMapper(machine)
        mapper.map(chain_pattern(32))
        mapper.map(chain_pattern(32))
        assert mapper.calls == 2


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(NPB_SPECS))
    def test_repeated_calls_identical_on_npb(self, machine, name):
        comm = make_npb(name, 32).ground_truth().matrix
        a = ScalableHierarchicalMapper(machine).map(comm)
        b = ScalableHierarchicalMapper(machine).map(comm)
        assert np.array_equal(a, b)

    def test_exact_ties_do_not_flip(self, machine):
        """Uniform matrices are all-ties: the mapping must still be stable."""
        comm = uniform_pattern(32, 7)
        mapper = ScalableHierarchicalMapper(machine)
        first = mapper.map(comm)
        for _ in range(3):
            assert np.array_equal(mapper.map(comm), first)

    def test_noop_when_already_optimal(self, machine):
        mapper = ScalableHierarchicalMapper(machine)
        comm = neighbor_pairs_pattern(32, 100)
        first = mapper.map(comm)
        second = mapper.map(comm, current=first)
        assert np.array_equal(first, second)

    def test_alignment_reduces_moves_under_noise(self, machine, rng):
        """The current placement must anchor placement-equivalent choices.

        Pair structure is fixed by the heavy weights; the socket/core
        assignment above it is nearly all ties, so mapping *with* the
        current placement must migrate fewer threads than mapping blind.
        """
        mapper = ScalableHierarchicalMapper(machine, stickiness=1.0)
        comm = neighbor_pairs_pattern(32, 100)
        current = mapper.map(comm)
        noisy = comm + rng.random((32, 32)) * 0.01
        noisy = (noisy + noisy.T) / 2
        np.fill_diagonal(noisy, 0)
        aligned = mapper.map(noisy, current=current)
        unaligned = mapper.map(noisy)
        assert int((aligned != current).sum()) < int((unaligned != current).sum())
        # Pairs stay intact either way.
        for k in range(16):
            d = machine.distance(int(aligned[2 * k]), int(aligned[2 * k + 1]))
            assert d is CommDistance.SAME_CORE


class TestSelection:
    CFG = EngineConfig(steps=5, batch_size=32)

    def test_spcd_defaults_to_edmonds_at_paper_scale(self):
        sim = Simulator(make_npb("CG", 8), "spcd", seed=1, config=self.CFG)
        assert sim.manager.mapper_algorithm == "edmonds"
        assert isinstance(sim.manager.mapper, HierarchicalMapper)

    def test_spcd_hier_policy_forces_hierarchical(self):
        sim = Simulator(make_npb("CG", 8), "spcd-hier", seed=1, config=self.CFG)
        assert sim.manager.mapper_algorithm == "hierarchical"
        assert isinstance(sim.manager.mapper, ScalableHierarchicalMapper)

    def test_auto_switch_at_threshold(self, caplog):
        """The machine's PU count, the size the Edmonds mapper pads every
        matrix to, decides the engine."""
        assert AUTO_HIERARCHICAL_PUS == 128
        with caplog.at_level("INFO", logger="repro.core.mapping"):
            assert select_mapper_algorithm(build_machine(2, 31, 2)) == "edmonds"  # 124
            assert not caplog.records
            assert select_mapper_algorithm(build_machine(2, 32, 2)) == "hierarchical"
        assert any("auto-selected the hierarchical mapper" in r.message
                   for r in caplog.records)

    def test_explicit_config_beats_auto_switch(self):
        """The policy is the one place that names an engine explicitly."""
        from repro.placement import resolve_policy

        hier = resolve_policy("spcd-hier")
        assert select_mapper_algorithm(dual_xeon_e5_2650(), policy=hier) == "hierarchical"
        spcd = resolve_policy("spcd")
        assert select_mapper_algorithm(build_machine(2, 31, 2), policy=spcd) == "edmonds"
        assert select_mapper_algorithm(build_machine(2, 32, 2), policy=spcd) == "hierarchical"

    @pytest.mark.parametrize(
        "n_pus, engine", [(32, HierarchicalMapper), (256, ScalableHierarchicalMapper)]
    )
    def test_serve_and_oracle_decide_through_the_selector(self, n_pus, engine, monkeypatch):
        """Serve's evaluator, ``oracle_mapping`` and the ``oracle`` policy map
        32 threads with the engine the simulator's manager would select on a
        machine of *n_pus* PUs."""
        from repro.oracle.analyzer import oracle_mapping
        from repro.placement import resolve_policy
        from repro.serve import SessionConfig
        from repro.serve.evaluator import MappingEvaluator

        calls = []
        for cls in (HierarchicalMapper, ScalableHierarchicalMapper):
            def spy(self, matrix, current=None, _cls=cls, _map=cls.map):
                calls.append(_cls)
                return _map(self, matrix, current=current)

            monkeypatch.setattr(cls, "map", spy)
        machine = dual_xeon_e5_2650() if n_pus == 32 else build_machine(4, 32, 2)
        assert machine.n_pus == n_pus
        workload = make_npb("CG", 32)

        evaluator = MappingEvaluator(machine, SessionConfig(n_threads=32))
        verdict, _ = evaluator.decide(
            workload.ground_truth(), comm_events=1, events_seen=1, now_ns=0, force=True
        )
        assert verdict != "pattern-unchanged"
        oracle_mapping(workload, machine)
        resolve_policy("oracle").make_scheduler(machine, workload, np.random.default_rng(0))
        assert calls == [engine, engine, engine]

    def test_spcd_hier_run_matches_spcd_at_paper_scale(self):
        """Same gates, same veto, near-identical behaviour on NPB inputs."""
        cfg = EngineConfig(steps=60, batch_size=64)
        a = Simulator(make_npb("CG", 8), "spcd", seed=3, config=cfg).run()
        b = Simulator(make_npb("CG", 8), "spcd-hier", seed=3, config=cfg).run()
        # Both must detect the same matrix; execution time may differ only
        # through mapping choices, which the quality gate bounds.
        assert np.array_equal(a.detected_matrix.matrix, b.detected_matrix.matrix)
