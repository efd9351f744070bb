"""The placement-engine suite: typed policies, digest parity with the
pre-placement engine, NUMA walk cost, page-table replication, and the
co-decided data mapping.

The parity tests are the load-bearing part: ``"spcd"`` (string or typed
instance) and an *inactive* replicated page table must reproduce the
legacy engine's results bit for bit, and the walk-cost charging must stay
off unless asked for.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from repro import EngineConfig, RunSettings, Simulator, SpcdConfig, make_npb
from repro.core.datamap import SpcdDataMapper
from repro.errors import AddressError, ConfigurationError
from repro.machine.topology import dual_xeon_e5_2650
from repro.mem.address import N_LEVELS
from repro.mem.addresspace import AddressSpace
from repro.mem.fault import FaultPipeline
from repro.mem.pagetable import PageTable
from repro.mem.physmem import FrameAllocator
from repro.mem.ptreplica import ReplicatedPageTable
from repro.mem.tlb import TlbArray
from repro.placement import (
    CombinedPlacementPolicy,
    DataPlacementPolicy,
    PlacementDecision,
    PlacementPolicy,
    ReplicatedPlacementPolicy,
    ThreadPlacementPolicy,
    canonical_policies,
    resolve_policy,
)
from repro.units import MSEC, PAGE_SIZE

CFG = EngineConfig(batch_size=128, steps=40, pretouch="parallel")


def digest(result) -> str:
    """Content hash of everything deterministic a run produces."""
    stats = dataclasses.astuple(result.stats)
    metrics = tuple(
        result.metric(m)
        for m in (
            "exec_time_s",
            "instructions",
            "l2_mpki",
            "l3_mpki",
            "c2c_transactions",
            "migrations",
            "first_touch_faults",
            "injected_faults",
        )
    )
    return hashlib.sha256(repr((stats, metrics)).encode()).hexdigest()[:16]


def run(policy, *, seed=7, workload="SP", settings=None, spcd_config=None):
    sim = Simulator(
        make_npb(workload), policy, seed=seed, config=CFG,
        settings=settings, spcd_config=spcd_config,
    )
    return sim, sim.run()


class TestResolvePolicy:
    def test_canonical_registry(self):
        registry = canonical_policies()
        assert set(registry) == {
            "os", "random", "oracle",
            "spcd", "spcd-hier", "spcd-data", "spcd-combined",
            "spcd-replicated",
        }
        for name, policy in registry.items():
            assert policy.name == name
            assert isinstance(policy, PlacementPolicy)

    def test_string_resolution_is_case_insensitive(self):
        assert resolve_policy("SPCD").name == "spcd"
        assert resolve_policy("spcd-Combined").name == "spcd-combined"

    def test_instances_pass_through_unchanged(self):
        policy = CombinedPlacementPolicy()
        assert resolve_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown policy"):
            resolve_policy("phoenix")

    def test_non_policy_object_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_policy(42)

    def test_plain_strings_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in canonical_policies():
                resolve_policy(name)


class _InertReplicaPolicy(ThreadPlacementPolicy):
    """replicate_pt-capable table installed, but never activated —
    the differential probe for inactive-replica bit-parity."""

    name = "spcd-inert-replica"
    replicate_pt = True

    def evaluate(self, view):
        return dataclasses.replace(
            ThreadPlacementPolicy.evaluate(self, view), replicate_pt=False
        )


class TestDigestParity:
    """`spcd` spelled any way — and with an idle replicated table —
    reproduces the legacy engine bit for bit."""

    def test_string_and_instance_agree(self):
        _, by_string = run("spcd")
        _, by_instance = run(ThreadPlacementPolicy())
        assert digest(by_string) == digest(by_instance)

    def test_inactive_replicated_table_is_bit_identical(self):
        sim, plain = run("spcd")
        rsim, replicated = run(_InertReplicaPolicy())
        assert isinstance(rsim.address_space.page_table, ReplicatedPageTable)
        assert not rsim.address_space.page_table.active
        assert not isinstance(sim.address_space.page_table, ReplicatedPageTable)
        assert digest(plain) == digest(replicated)

    def test_walk_charging_is_off_by_default(self):
        sim, _ = run("spcd")
        assert sim.perf.pt_walk_levels_local == 0
        assert sim.perf.pt_walk_levels_remote == 0

    def test_walk_charging_slows_faults_when_enabled(self):
        _, base = run("spcd")
        sim, charged = run("spcd", settings=RunSettings(placement_walk=True))
        assert sim.perf.pt_walk_levels_local > 0
        # SP touches pages from both sockets, so some walks go remote
        assert sim.perf.pt_walk_levels_remote > 0
        assert charged.exec_time_s > base.exec_time_s


class TestWalkCost:
    def test_first_touch_assigns_directory_pages_to_the_walker(self):
        table = PageTable(1 << 12)
        cost = table.charge_walk(0, node=1)
        # the first walk allocates all four directory pages locally
        assert cost == N_LEVELS * table.level_local_ns
        assert [table.dir_home(lvl, 0) for lvl in range(N_LEVELS)] == [1] * N_LEVELS
        # a walk of the same page from the other socket pays full remote
        assert table.charge_walk(0, node=0) == N_LEVELS * table.level_remote_ns
        assert table.walk_levels_local == N_LEVELS
        assert table.walk_levels_remote == N_LEVELS

    def test_batch_walks_split_local_and_remote_levels(self):
        table = PageTable(1 << 12)
        table.charge_walk(np.arange(4, dtype=np.int64), node=0)
        before = table.walk_cost_ns
        cost = table.charge_walk(np.arange(4, dtype=np.int64), node=1)
        # shared upper directories are remote for node 1
        assert cost > 0 and table.walk_cost_ns == before + cost
        assert table.walk_levels_remote > 0

    def test_numa_model_derives_level_latencies(self):
        from repro.machine.numa import NumaModel

        numa = NumaModel(dual_xeon_e5_2650())
        local = numa.pt_walk_level_ns(local=True)
        remote = numa.pt_walk_level_ns(local=False)
        assert 0 < local < remote

    def test_replicated_table_walks_resolve_locally(self):
        table = ReplicatedPageTable(1 << 12, n_nodes=2)
        table.charge_walk(0, node=0)  # homes the directories on node 0
        table.activate()
        # post-activation, node 1 walks its own replica: all levels local
        assert table.charge_walk(0, node=1) == N_LEVELS * table.level_local_ns
        assert table.walk_levels_remote == 0


class TestReplicatedPageTable:
    def test_activation_cost_scales_with_directory_pages(self):
        table = ReplicatedPageTable(1 << 12, n_nodes=2, page_copy_cost_ns=100.0)
        cost = table.activate()
        assert cost == 2 * table.dir_page_count() * 100.0
        assert table.activate() == 0.0  # idempotent
        assert table.replication_cost_ns == cost

    def test_broadcast_keeps_replicas_coherent(self):
        table = ReplicatedPageTable(64, n_nodes=2)
        table.activate()
        table.map_page(3, 17, 1)
        table.clear_present(np.array([3], dtype=np.int64))
        table.unmap_page(3)
        assert table.replicas_coherent()
        assert table.replica_updates > 0
        assert table.replication_cost_ns > 0

    def test_dropped_present_broadcast_diverges(self):
        table = ReplicatedPageTable(64, n_nodes=2, broadcast_present=False)
        table.activate()
        table.map_page(3, 17, 1)
        divergence = table.replica_divergence()
        assert divergence is not None and "present" in divergence
        assert not table.consistency_ok()

    def test_rejects_nonpositive_node_count(self):
        with pytest.raises(ConfigurationError):
            ReplicatedPageTable(64, n_nodes=0)


class TestAddressSpaceTableInjection:
    def test_custom_table_is_used(self):
        table = ReplicatedPageTable(256, n_nodes=2)
        space = AddressSpace(256, page_table=table)
        assert space.page_table is table

    def test_capacity_mismatch_rejected(self):
        with pytest.raises(AddressError, match="capacity"):
            AddressSpace(256, page_table=PageTable(128))


@pytest.fixture
def datamap_env():
    space = AddressSpace(256)
    space.mmap("data", 16 * PAGE_SIZE)
    frames = FrameAllocator(2, 1000)
    tlbs = TlbArray(n_pus=2, capacity=8)
    pipeline = FaultPipeline(space, frames, tlbs, node_of_pu=lambda pu: pu % 2)
    mapper = SpcdDataMapper(pipeline, 2, node_of_pu=lambda pu: pu % 2, min_faults=2)
    return space, pipeline, mapper


def _fault(space, pipeline, pu, page):
    addr = space.region("data").base + page * PAGE_SIZE
    vpn = addr // PAGE_SIZE
    if space.page_table.is_present(vpn):
        space.page_table.clear_present(vpn)
    pipeline.handle_fault(pu, pu, addr, is_write=False, now_ns=0)
    return vpn


class TestHomeNodeRegression:
    """Satellite regression: home_node_of / home_nodes and the TLB
    shootdown a page migration must issue."""

    def test_home_tracks_mapping_and_unmapping(self):
        table = PageTable(64)
        assert table.home_node_of(5) == -1
        table.map_page(5, 9, 1)
        assert table.home_node_of(5) == 1
        table.unmap_page(5)
        assert table.home_node_of(5) == -1

    def test_home_nodes_is_the_vectorised_twin(self):
        table = PageTable(64)
        table.map_pages(
            np.array([1, 2, 3]), np.array([10, 11, 12]), np.array([0, 1, 0])
        )
        vpns = np.array([0, 1, 2, 3], dtype=np.int64)
        batch = table.home_nodes(vpns)
        assert batch.tolist() == [table.home_node_of(int(v)) for v in vpns]

    def test_migration_shoots_stale_tlb_entries(self, datamap_env):
        space, pipeline, mapper = datamap_env
        vpn = _fault(space, pipeline, 0, 0)  # PU 0 faults → TLB 0 caches it
        assert pipeline.tlbs[0].lookup(vpn) is not None
        for _ in range(5):
            _fault(space, pipeline, 1, 0)  # node 1 dominates → will migrate
        assert mapper.scan(0) == 1
        assert space.page_table.home_node_of(vpn) == 1
        # the regression: without the shootdown, TLB 0 kept translating
        # to the freed frame
        assert pipeline.tlbs[0].lookup(vpn) is None
        assert pipeline.tlbs[1].lookup(vpn) is None


class TestSharedPageDeferral:
    """decide/apply/finish split + the combined policy's deferral."""

    def _split_pattern(self, datamap_env):
        space, pipeline, mapper = datamap_env
        vpn = _fault(space, pipeline, 0, 0)
        for _ in range(3):
            _fault(space, pipeline, 0, 0)
        for _ in range(5):
            _fault(space, pipeline, 1, 0)  # 5:4 — no node dominates
        return space, mapper, vpn

    def test_data_only_vetoes_shared_pages(self, datamap_env):
        space, mapper, vpn = self._split_pattern(datamap_env)
        moves, deferred = mapper.decide(defer_shared=False)
        assert moves == [] and deferred == 0
        assert mapper.stats.migrations_vetoed_shared >= 1

    def test_combined_defers_shared_pages_to_the_thread_mapper(self, datamap_env):
        space, mapper, vpn = self._split_pattern(datamap_env)
        moves, deferred = mapper.decide(defer_shared=True)
        assert moves == [] and deferred == 1
        assert mapper.stats.migrations_vetoed_shared == 0

    def test_decide_apply_finish_equals_legacy_scan(self, datamap_env):
        space, pipeline, mapper = datamap_env
        vpn = _fault(space, pipeline, 0, 0)
        for _ in range(5):
            _fault(space, pipeline, 1, 0)
        moves, deferred = mapper.decide()
        assert moves == [(vpn, 1)] and deferred == 0
        assert mapper.apply_moves(moves) == 1
        mapper.finish_scan()
        assert space.page_table.home_node_of(vpn) == 1
        assert mapper.scan(1) == 0  # nothing left to do


class TestPlacementRuns:
    """End-to-end runs of every new policy on a small configuration."""

    def test_data_only_never_remaps_threads(self):
        sim, result = run("spcd-data")
        assert result.policy == "spcd-data"
        assert result.migrations == 0
        assert sim.manager.data_mapper is not None
        assert sim.address_space.page_table.consistency_ok()

    def test_combined_co_decides_in_one_evaluation(self):
        sim, result = run("spcd-combined", workload="SP")
        assert result.policy == "spcd-combined"
        assert sim.manager.overheads.filter_evaluations >= 1
        assert sim.manager.data_mapper is not None
        # the data scan rides the evaluation, not its own timer
        names = [kt.name for kt in sim.wheel.threads()]
        assert "spcd-datamap" not in names
        assert sim.address_space.page_table.consistency_ok()

    def test_replicated_policy_activates_and_stays_coherent(self):
        sim, result = run("spcd-replicated")
        table = sim.address_space.page_table
        assert isinstance(table, ReplicatedPageTable)
        assert table.active and table.replicas_coherent()
        assert sim.manager.replication_time_ns() > 0
        # the replication bill lands in the Fig. 16 mapping bucket
        assert sim.manager.mapping_time_ns() >= sim.manager.replication_time_ns()

    def test_pt_replicate_setting_activates_from_the_start(self):
        sim, _ = run("spcd", settings=RunSettings(pt_replicate=True))
        table = sim.address_space.page_table
        assert isinstance(table, ReplicatedPageTable)
        assert table.active and table.replicas_coherent()

    def test_policies_are_deterministic(self):
        for name in ("spcd-data", "spcd-combined", "spcd-replicated"):
            _, a = run(name, seed=11)
            _, b = run(name, seed=11)
            assert digest(a) == digest(b), name


class TestPlacementSettings:
    def test_env_knobs_route_through_runsettings(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLACEMENT_WALK", "1")
        monkeypatch.setenv("REPRO_PLACEMENT_WALK_LOCAL_NS", "11.5")
        monkeypatch.setenv("REPRO_PLACEMENT_WALK_REMOTE_NS", "99.0")
        monkeypatch.setenv("REPRO_PT_REPLICATE", "1")
        settings = RunSettings.from_env()
        assert settings.placement_walk is True
        assert settings.placement_walk_local_ns == 11.5
        assert settings.placement_walk_remote_ns == 99.0
        assert settings.pt_replicate is True

    def test_defaults_are_off(self):
        settings = RunSettings()
        assert settings.placement_walk is False
        assert settings.placement_walk_local_ns is None
        assert settings.placement_walk_remote_ns is None
        assert settings.pt_replicate is False

    def test_nonpositive_walk_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            RunSettings(placement_walk_local_ns=0.0)
        with pytest.raises(ConfigurationError):
            RunSettings(placement_walk_remote_ns=-1.0)

    def test_walk_latency_overrides_reach_the_table(self):
        sim, _ = run(
            "spcd",
            settings=RunSettings(
                placement_walk=True,
                placement_walk_local_ns=11.5,
                placement_walk_remote_ns=99.0,
            ),
        )
        table = sim.address_space.page_table
        assert table.level_local_ns == 11.5
        assert table.level_remote_ns == 99.0


class TestPlacementDecision:
    def test_noop_detection(self):
        assert PlacementDecision(verdict="cooldown").is_noop
        assert not PlacementDecision(verdict="x", thread_mapping=(0, 1)).is_noop
        assert not PlacementDecision(verdict="x", replicate_pt=True).is_noop

    def test_decisions_are_frozen(self):
        decision = PlacementDecision(verdict="static")
        with pytest.raises(dataclasses.FrozenInstanceError):
            decision.verdict = "mutated"

    def test_policy_table_matches_registry(self):
        policies = canonical_policies()
        assert policies["spcd"].maps_threads and not policies["spcd"].maps_data
        assert not policies["spcd-data"].maps_threads
        assert policies["spcd-data"].maps_data
        combined = policies["spcd-combined"]
        assert combined.maps_threads and combined.maps_data
        assert not combined.replicate_pt
        replicated = policies["spcd-replicated"]
        assert replicated.maps_threads and replicated.maps_data
        assert replicated.replicate_pt
        assert isinstance(replicated, ReplicatedPlacementPolicy)
        assert isinstance(replicated, CombinedPlacementPolicy)
