"""The placement policies: five frozen records and one evaluation.

``"spcd"`` spelled as a string or as a record must run bit for bit the
same, and every other name — the extensions removed in 10.0 included —
is refused.
"""

import dataclasses
import hashlib
import warnings

import numpy as np
import pytest

from repro import EngineConfig, Simulator, make_npb
from repro.errors import ConfigurationError
from repro.mem.pagetable import PageTable
from repro.placement import PlacementPolicy, canonical_policies, resolve_policy

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


def run(policy, *, seed=7, workload="SP", config=CFG):
    sim = Simulator(make_npb(workload), policy, seed=seed, config=config)
    return sim, sim.run()


class TestResolvePolicy:
    def test_canonical_registry(self):
        registry = canonical_policies()
        assert set(registry) == {"os", "random", "oracle", "spcd", "spcd-hier"}
        for name, policy in registry.items():
            assert policy.name == name
            assert isinstance(policy, PlacementPolicy)

    def test_string_resolution_is_case_insensitive(self):
        assert resolve_policy("SPCD").name == "spcd"
        assert resolve_policy("spcd-Hier").name == "spcd-hier"

    def test_instances_pass_through_unchanged(self):
        policy = dataclasses.replace(resolve_policy("spcd-hier"), name="mine")
        assert resolve_policy(policy) is policy

    def test_unknown_start_raises(self):
        with pytest.raises(ConfigurationError, match="unknown start"):
            PlacementPolicy("pinned", start="first-touch")

    def test_variants_are_one_replace_away(self):
        spcd = resolve_policy("spcd")
        variant = dataclasses.replace(spcd, mapper_algorithm="hierarchical")
        assert variant.maps_threads and variant != spcd
        with pytest.raises(dataclasses.FrozenInstanceError):
            spcd.maps_threads = False

    def test_unknown_name_raises(self):
        # the extensions removed in 10.0 are refused like any other name
        for name in ("phoenix", "spcd-data", "spcd-combined", "spcd-replicated"):
            with pytest.raises(ConfigurationError, match="unknown policy"):
                resolve_policy(name)

    def test_non_policy_object_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_policy(42)

    def test_plain_strings_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in canonical_policies():
                resolve_policy(name)


class TestDigestParity:
    """`spcd` spelled any way runs bit for bit the same."""

    def test_string_and_instance_agree(self):
        _, by_string = run("spcd")
        _, by_instance = run(PlacementPolicy("spcd", maps_threads=True))
        assert digest(by_string) == digest(by_instance)


class TestHomeNodeRegression:
    """home_node_of and its vectorised twin home_nodes agree."""

    def test_home_nodes_is_the_vectorised_twin(self):
        table = PageTable(64)
        table.map_pages(
            np.array([1, 2, 3]), np.array([10, 11, 12]), np.array([0, 1, 0])
        )
        vpns = np.array([0, 1, 2, 3], dtype=np.int64)
        batch = table.home_nodes(vpns)
        assert batch.tolist() == [table.home_node_of(int(v)) for v in vpns]


class TestPolicyRecords:
    def test_policy_table_matches_registry(self):
        policies = canonical_policies()
        assert [f.name for f in dataclasses.fields(PlacementPolicy)] == [
            "name", "start", "maps_threads", "mapper_algorithm"
        ]
        assert list(policies) == ["os", "random", "oracle", "spcd", "spcd-hier"]
        assert policies["spcd"].maps_threads
        assert policies["spcd"].mapper_algorithm is None
        assert policies["spcd-hier"].maps_threads
        assert policies["spcd-hier"].mapper_algorithm == "hierarchical"
        assert [p.name for p in policies.values() if not p.maps_threads] == [
            "os", "random", "oracle"
        ]
        assert policies["os"].start == "cfs" and policies["oracle"].start == "oracle"
